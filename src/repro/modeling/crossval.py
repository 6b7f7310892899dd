"""K-fold cross validation and the accuracy summaries of Tables 13 and 14."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.modeling.regression import fit_linear_model, relative_errors
from repro.util.rng import default_rng

__all__ = ["FOLDS", "CrossValidationSummary", "k_fold_cross_validation"]

#: The paper's fold count: every fitted suite, report and adaptive refit is
#: cross-validated 3-fold (Table 13, Figure 11).
FOLDS = 3


@dataclass
class CrossValidationSummary:
    """Held-out prediction accuracy aggregated over all folds.

    Attributes
    ----------
    errors:
        Relative error of every held-out prediction (Figure 11's y-axis,
        expressed as a fraction rather than a percentage).
    predictions, actuals:
        The held-out predictions and their measured values.
    """

    errors: np.ndarray
    predictions: np.ndarray
    actuals: np.ndarray
    num_folds: int

    def fraction_within(self, percent: float) -> float:
        """Fraction of held-out predictions within ``percent`` relative error."""
        if len(self.errors) == 0:
            return 0.0
        return float(np.mean(np.abs(self.errors) <= percent / 100.0))

    @property
    def average_error_percent(self) -> float:
        """Mean absolute relative error in percent (the "Average %" column)."""
        if len(self.errors) == 0:
            return 0.0
        return float(np.mean(np.abs(self.errors)) * 100.0)

    def accuracy_row(self) -> dict[str, float]:
        """The Table 13 row: percentages within 50/25/10/5 percent plus the average."""
        return {
            "within_50": 100.0 * self.fraction_within(50.0),
            "within_25": 100.0 * self.fraction_within(25.0),
            "within_10": 100.0 * self.fraction_within(10.0),
            "within_5": 100.0 * self.fraction_within(5.0),
            "average_percent": self.average_error_percent,
        }


def k_fold_cross_validation(
    design: np.ndarray,
    response: np.ndarray,
    k: int = FOLDS,
    seed: int | None = None,
    nonnegative: bool = False,
) -> CrossValidationSummary:
    """K-fold cross validation of a linear model.

    The observations are shuffled deterministically, split into ``k`` folds,
    and each fold is predicted by a model trained on the remaining folds --
    exactly the paper's 3-fold procedure ("for each fold, two thirds of the
    data is used to train the model and the remaining one third is used to
    test the prediction").
    """
    design = np.atleast_2d(np.asarray(design, dtype=np.float64))
    response = np.asarray(response, dtype=np.float64).ravel()
    n = len(response)
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < 2 * k:
        raise ValueError(f"need at least {2 * k} observations for {k}-fold cross validation")

    rng = default_rng(seed, "crossval", k, n)
    permutation = rng.permutation(n)
    folds = np.array_split(permutation, k)

    all_errors: list[np.ndarray] = []
    all_predictions: list[np.ndarray] = []
    all_actuals: list[np.ndarray] = []
    for held_out in folds:
        train = np.setdiff1d(permutation, held_out, assume_unique=True)
        fit = fit_linear_model(design[train], response[train], nonnegative=nonnegative)
        predicted = fit.predict(design[held_out])
        actual = response[held_out]
        all_errors.append(relative_errors(actual, predicted))
        all_predictions.append(predicted)
        all_actuals.append(actual)

    return CrossValidationSummary(
        errors=np.concatenate(all_errors),
        predictions=np.concatenate(all_predictions),
        actuals=np.concatenate(all_actuals),
        num_folds=k,
    )
