"""Multiple linear regression and the fit-quality metrics used by the study.

The paper fits its models with R's ``lm`` and evaluates them with multiple
R-squared and residual standard deviation; this module provides the same
mathematics on numpy: ordinary least squares through ``lstsq``, and the
non-negative fit of Eqs. 5.1-5.3 through :func:`_nnls`, the Lawson-Hanson
active-set method built on the same ``lstsq``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LinearRegressionResult", "fit_linear_model", "relative_errors"]

_EPSILON = np.finfo(np.float64).eps


@dataclass
class LinearRegressionResult:
    """Outcome of one ordinary-least-squares fit.

    Attributes
    ----------
    coefficients:
        One coefficient per column of the design matrix (the intercept is a
        column of ones supplied by the caller, matching the paper's explicit
        ``c_i`` constants).
    r_squared:
        Multiple R-squared: fraction of the response variance the model
        captures.
    residual_std:
        Standard deviation of the residuals with degrees-of-freedom
        correction (the "residual standard error" of R's ``summary.lm``).
    term_names:
        Optional labels for the design-matrix columns.
    """

    coefficients: np.ndarray
    r_squared: float
    residual_std: float
    num_observations: int
    term_names: tuple[str, ...] = ()

    def predict(self, design: np.ndarray) -> np.ndarray:
        """Predictions for a new design matrix with the same columns."""
        design = np.atleast_2d(np.asarray(design, dtype=np.float64))
        if design.shape[1] != len(self.coefficients):
            raise ValueError(
                f"design matrix has {design.shape[1]} columns, expected {len(self.coefficients)}"
            )
        return self._weighted_sum(design.T)

    def predict_terms(self, works: list[np.ndarray]) -> np.ndarray:
        """Predictions from each term's work column, the intercept's ones column
        left out: the same sums as :meth:`predict` on the design matrix built
        from ``works``, without building it (``1.0 * c == c``)."""
        if len(works) != len(self.coefficients) - 1:
            raise ValueError(f"got {len(works)} work columns, expected {len(self.coefficients) - 1}")
        total = self._weighted_sum(works)
        total += self.coefficients[-1]
        return total

    def _weighted_sum(self, columns) -> np.ndarray:
        """``column_i * c_i`` accumulated in fixed term order over ``columns``.

        Not BLAS gemv: each row's result is then bit-identical however many
        rows share the call (gemv picks different kernels by matrix size, which
        perturbs the last ulp).  The serving tier's batch-invariance contract
        -- a micro-batched prediction must equal the same query served alone
        -- depends on this.
        """
        total = columns[0] * self.coefficients[0]
        for column, coefficient in zip(columns[1:], self.coefficients[1:]):
            total += column * coefficient
        return total

    def named_coefficients(self) -> dict[str, float]:
        """Coefficients keyed by term name (``c0``, ``c1``, ... when unnamed)."""
        names = self.term_names or tuple(f"c{i}" for i in range(len(self.coefficients)))
        return {name: float(value) for name, value in zip(names, self.coefficients)}


def fit_linear_model(
    design: np.ndarray,
    response: np.ndarray,
    term_names: tuple[str, ...] | None = None,
    nonnegative: bool = False,
) -> LinearRegressionResult:
    """Ordinary (or non-negative) least squares fit of ``response ~ design``.

    Parameters
    ----------
    design:
        ``(n, p)`` matrix of model terms (include a column of ones for an
        intercept term).
    response:
        ``(n,)`` observed values (run times).
    term_names:
        Optional labels for the ``p`` columns.
    nonnegative:
        Constrain every coefficient to be non-negative (solved with
        :func:`_nnls`).  The paper argues that negative coefficients indicate
        an invalid rendering model; the renderer models use this constraint
        so that extrapolation to exascale-sized configurations (Section 5.9)
        cannot produce negative times.

    Returns
    -------
    LinearRegressionResult

    Raises
    ------
    ValueError
        On mismatched shapes, fewer rows than columns, or a NaN or infinite
        entry in ``design`` or ``response`` (on both paths alike).
    """
    design = np.atleast_2d(np.asarray(design, dtype=np.float64))
    response = np.asarray(response, dtype=np.float64).ravel()
    n, p = design.shape
    if len(response) != n:
        raise ValueError("design and response must have the same number of rows")
    if n < p:
        raise ValueError(f"need at least {p} observations to fit {p} coefficients (got {n})")
    if not (np.isfinite(design).all() and np.isfinite(response).all()):
        raise ValueError("design and response must be finite (found NaN or inf)")

    if nonnegative:
        # NNLS is poorly conditioned when columns differ by many orders of
        # magnitude (e.g. an intercept column of ones next to a pixel-count
        # column in the millions), so solve in column-scaled space.
        scale = np.linalg.norm(design, axis=0)
        scale[scale == 0.0] = 1.0
        coefficients = _nnls(design / scale, response) / scale
    else:
        coefficients, _, _, _ = np.linalg.lstsq(design, response, rcond=None)
    predictions = design @ coefficients
    residuals = response - predictions
    total_ss = float(np.sum((response - response.mean()) ** 2))
    residual_ss = float(np.sum(residuals**2))
    r_squared = 1.0 - residual_ss / total_ss if total_ss > 0 else 1.0
    dof = max(n - p, 1)
    residual_std = float(np.sqrt(residual_ss / dof))
    return LinearRegressionResult(
        coefficients=coefficients,
        r_squared=r_squared,
        residual_std=residual_std,
        num_observations=n,
        term_names=tuple(term_names) if term_names else (),
    )


def _nnls(design: np.ndarray, response: np.ndarray) -> np.ndarray:
    """``argmin ||design @ x - response||`` subject to ``x >= 0``.

    The Lawson-Hanson active-set method (*Solving Least Squares Problems*,
    ch. 23), each passive-set subproblem solved with ``lstsq``.  Starting from
    ``x = 0`` it moves into the passive set the zero coordinate whose gradient
    ``design.T @ (response - design @ x)`` is largest and solves the
    unconstrained problem on the passive columns.  While that solution has a
    non-positive entry, ``x`` moves toward it only until its first coordinate
    reaches zero, that coordinate leaves the passive set and the subproblem
    is solved again.  It stops when no zero coordinate's gradient exceeds a
    round-off tolerance: then ``x`` satisfies the KKT conditions.

    A candidate whose own coordinate is not positive in its subproblem's
    solution is passed over, as in Lawson-Hanson.  A column that duplicates a
    passive one has a gradient within round-off of zero, so it stays at
    exactly zero.  When the unconstrained solution is already non-negative it
    is the constrained optimum and is returned without iterating.
    """
    solution = np.linalg.lstsq(design, response, rcond=None)[0]
    if (solution >= 0.0).all():
        return solution
    n, p = design.shape
    # Round-off in a gradient entry grows with the problem size and the norms
    # of the design and the response (so the test is unit-free).
    tolerance = 10.0 * _EPSILON * max(n, p) * np.linalg.norm(design) * np.linalg.norm(response)
    x = np.zeros(p)
    passive: list[int] = []  # column indices, ascending
    for _ in range(3 * p):
        gradient = (design.T @ (response - design @ x)).tolist()
        candidates = [j for j in range(p) if j not in passive and gradient[j] > tolerance]
        while candidates:
            # The largest gradient; on a tie within round-off the lowest index, so
            # which of two identical columns enters does not depend on BLAS rounding.
            best = max(gradient[j] for j in candidates)
            entering = next(j for j in candidates if gradient[j] >= best - tolerance)
            candidates.remove(entering)
            trial = sorted([*passive, entering])
            z = _passive_solve(design, response, trial)
            if z[entering] > 0.0:
                break
        else:
            return x
        passive = trial
        while passive and z[passive].min() <= 0.0:
            blocking = [j for j in passive if z[j] <= 0.0]
            ratios = x[blocking] / (x[blocking] - z[blocking])
            x += ratios.min() * (z - x)
            x[blocking[int(np.argmin(ratios))]] = 0.0
            passive = [j for j in passive if x[j] > 0.0]
            z = _passive_solve(design, response, passive)
        x = z
    raise RuntimeError(f"non-negative least squares did not converge in {3 * p} iterations")


def _passive_solve(design: np.ndarray, response: np.ndarray, passive: list[int]) -> np.ndarray:
    """Least squares on the passive columns, zero elsewhere."""
    z = np.zeros(design.shape[1])
    if passive:
        z[passive] = np.linalg.lstsq(design[:, passive], response, rcond=None)[0]
    return z


def relative_errors(actual: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """Relative error per observation: ``(actual - predicted) / actual``.

    Matches the error definition used by the cross-validation plots
    (Figure 11): positive values mean the model under-predicts.
    """
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    safe = np.where(np.abs(actual) < 1e-300, 1e-300, actual)
    return (actual - predicted) / safe
