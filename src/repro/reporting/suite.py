"""The fitted-model registry: every per-technique/per-architecture model in one object.

:class:`ModelSuite` is the reporting subsystem's core artifact.  One call
(:meth:`ModelSuite.fit_corpus`) fits every ``(architecture, technique)`` slice
of a study corpus (Eqs. 5.1-5.3) plus the compositing model (Eq. 5.5),
cross-validates each fit k-fold, runs the coefficient/residual diagnostics the
paper prescribes ("no input variables should have a negative linear
relationship to run-time"), and records every degenerate slice as a structured
failure instead of dying.

The suite serializes to a versioned ``models.json`` (:data:`MODELS_SCHEMA_VERSION`)
that round-trips exactly: coefficients are stored at full float precision, so a
:class:`~repro.reporting.predictor.Predictor` loaded from disk reproduces the
in-memory suite's predictions bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.modeling.crossval import CrossValidationSummary
from repro.modeling.models import PerformanceModel, make_model
from repro.modeling.regression import LinearRegressionResult
from repro.modeling.study import COMPOSITING_ARCHITECTURE, StudyCorpus, model_inputs

__all__ = [
    "MODELS_SCHEMA_VERSION",
    "COMPOSITING_ARCHITECTURE",
    "LOW_R_SQUARED_FLOOR",
    "FittedModel",
    "ModelSuite",
]

#: Version guard of the ``models.json`` schema.
MODELS_SCHEMA_VERSION = 1

#: Fits explaining less variance than this are flagged with a structured
#: warning (the paper's weakest usable model, compositing, sits near 0.7).
LOW_R_SQUARED_FLOOR = 0.5


@dataclass
class FittedModel:
    """One fitted model plus its accuracy summary and diagnostics.

    ``crossval`` holds the full k-fold summary when the suite was fitted in
    this process (the figure emitters need the per-point errors);
    ``crossval_accuracy`` holds the aggregate Table 13/14 row and survives
    serialization.  A suite loaded from ``models.json`` therefore predicts and
    tabulates, but cannot re-emit the per-point figures -- those always come
    from a corpus.
    """

    architecture: str
    technique: str
    model: PerformanceModel
    num_rows: int
    crossval: CrossValidationSummary | None = None
    crossval_accuracy: dict | None = None
    crossval_skipped: str = ""
    warnings: list[dict] = field(default_factory=list)

    @property
    def key(self) -> tuple[str, str]:
        return (self.architecture, self.technique)

    def diagnostics(self) -> dict:
        """Residual/coefficient diagnostics of every fit group."""
        groups = {}
        for name, fit in self.model.fits.items():
            coefficients = fit.named_coefficients()
            groups[name] = {
                "r_squared": float(fit.r_squared),
                "residual_std": float(fit.residual_std),
                "num_observations": int(fit.num_observations),
                "coefficients": coefficients,
                "negative_terms": sorted(term for term, value in coefficients.items() if value < 0.0),
            }
        return groups


def _coefficient_warnings(entry: FittedModel) -> list[dict]:
    """Negative-coefficient red flags, promoted to structured warnings.

    The renderer models are fit with a non-negativity constraint, so these
    fire mainly on the plain-OLS compositing fit -- exactly the variable
    selection discipline the paper (via Stine's least-angle-regression
    discussion) uses to spot invalid models.
    """
    warnings = []
    for group, fit in entry.model.fits.items():
        for term, value in fit.named_coefficients().items():
            if value < 0.0:
                warnings.append(
                    {
                        "kind": "negative_coefficient",
                        "architecture": entry.architecture,
                        "technique": entry.technique,
                        "group": group,
                        "term": term,
                        "value": float(value),
                    }
                )
    return warnings


def _quality_warnings(entry: FittedModel) -> list[dict]:
    """Low-R-squared residual diagnostics."""
    warnings = []
    for group, fit in entry.model.fits.items():
        if fit.r_squared < LOW_R_SQUARED_FLOOR:
            warnings.append(
                {
                    "kind": "low_r_squared",
                    "architecture": entry.architecture,
                    "technique": entry.technique,
                    "group": group,
                    "value": float(fit.r_squared),
                    "floor": LOW_R_SQUARED_FLOOR,
                }
            )
    return warnings


@dataclass
class ModelSuite:
    """Every model the corpus supports, fitted, validated, and serializable."""

    entries: dict[tuple[str, str], FittedModel] = field(default_factory=dict)
    compositing: FittedModel | None = None
    failures: list[dict] = field(default_factory=list)
    folds: int = 3
    seed: int = 2016

    # -- fitting -----------------------------------------------------------------------
    @classmethod
    def fit_corpus(cls, corpus: StudyCorpus, folds: int = 3, seed: int = 2016) -> "ModelSuite":
        """Fit the full registry from a corpus in one call.

        The only code that fits or cross-validates a corpus slice: each
        slice's ``(model, arrays, targets)`` comes from
        :func:`repro.modeling.study.model_inputs` once, the model is fit on
        those arrays, and the k-fold cross validation runs on the same ones.
        Degenerate slices (too few rows for the slice's coefficient count,
        singular designs, ...) become structured entries in :attr:`failures`
        rather than exceptions: a partially-degenerate corpus still yields
        every model it can support, and callers can tell exactly what was
        skipped and why.  A slice whose rows come from more than one dpp
        device is a ``mixed-devices`` failure: one back-end's timings never
        reach another back-end's model.
        """
        suite = cls(folds=folds, seed=seed)
        slices = [
            (architecture, technique, rows, sorted({row.dpp_device for row in rows}))
            for architecture, technique, rows in corpus.slices()
        ]
        if corpus.compositing_records:
            slices.append((COMPOSITING_ARCHITECTURE, "compositing", corpus.compositing_records, []))
        for architecture, technique, rows, devices in slices:
            if len(devices) > 1:
                error = ValueError(f"rows span {len(devices)} dpp devices: {', '.join(devices)}")
                suite.failures.append(_failure(architecture, technique, len(rows), error, "mixed-devices"))
                continue
            try:
                model, arrays, targets = model_inputs(technique, rows)
                model.fit(arrays, *targets)
            except Exception as error:  # noqa: BLE001 -- every degenerate fit becomes a row
                suite.failures.append(_failure(architecture, technique, len(rows), error))
                continue
            entry = FittedModel(architecture, technique, model, len(rows))
            entry.warnings.extend(_coefficient_warnings(entry))
            entry.warnings.extend(_quality_warnings(entry))
            try:
                entry.crossval = model.cross_validate(arrays, *targets, k=folds, seed=seed)
                entry.crossval_accuracy = entry.crossval.accuracy_row()
            except Exception as error:  # noqa: BLE001 -- e.g. too few rows (ValueError),
                # nnls non-convergence (RuntimeError), singular folds (LinAlgError):
                # a pathological fold must degrade to a warning, not kill the report.
                entry.crossval_skipped = str(error)
                entry.warnings.append(
                    {
                        "kind": "crossval_skipped",
                        "architecture": architecture,
                        "technique": technique,
                        "message": str(error),
                    }
                )
            if technique == "compositing":
                suite.compositing = entry
            else:
                suite.entries[entry.key] = entry
        return suite

    # -- access ------------------------------------------------------------------------
    def get(self, architecture: str, technique: str) -> FittedModel:
        """Entry lookup with a helpful error listing what is available."""
        if technique == "compositing":
            if self.compositing is None:
                raise KeyError("no compositing model in this suite")
            return self.compositing
        try:
            return self.entries[(architecture, technique)]
        except KeyError:
            available = ", ".join(f"{a}/{t}" for a, t in sorted(self.entries)) or "none"
            raise KeyError(
                f"no fitted model for ({architecture!r}, {technique!r}); available: {available}"
            ) from None

    def all_entries(self) -> list[FittedModel]:
        """Renderer entries in sorted key order, compositing (if any) last."""
        ordered = [self.entries[key] for key in sorted(self.entries)]
        if self.compositing is not None:
            ordered.append(self.compositing)
        return ordered

    def all_warnings(self) -> list[dict]:
        """Every structured warning of every fitted entry."""
        collected: list[dict] = []
        for entry in self.all_entries():
            collected.extend(entry.warnings)
        return collected

    def slice_errors(self) -> list[dict]:
        """Per-slice cross-validated error rows, in :meth:`all_entries` order.

        One JSON-safe row per fitted slice: row count, per-fit-group residual
        standard deviations (the interval half-width's fuel), and the k-fold
        accuracy aggregate when cross validation ran (``None`` plus the skip
        reason otherwise).  The learning-curve trajectory
        (:mod:`repro.study.trajectory`) appends exactly these rows, so the
        error-vs-corpus-size curve is readable straight off ``BENCH_learning
        .json`` without refitting anything.
        """
        rows: list[dict] = []
        for entry in self.all_entries():
            accuracy = entry.crossval_accuracy
            rows.append(
                {
                    "architecture": entry.architecture,
                    "technique": entry.technique,
                    "num_rows": int(entry.num_rows),
                    "residual_std": {
                        name: float(fit.residual_std) for name, fit in entry.model.fits.items()
                    },
                    "crossval_average_percent": (
                        float(accuracy["average_percent"]) if accuracy else None
                    ),
                    "crossval_within_50": float(accuracy["within_50"]) if accuracy else None,
                    "crossval_skipped": entry.crossval_skipped,
                }
            )
        return rows

    def is_empty(self) -> bool:
        """True when *nothing* could be fitted (the all-degenerate case)."""
        return not self.entries and self.compositing is None

    # -- serialization -----------------------------------------------------------------
    def to_payload(self) -> dict:
        """The versioned ``models.json`` payload (schema documented in DESIGN.md)."""
        return {
            "schema": MODELS_SCHEMA_VERSION,
            "folds": self.folds,
            "seed": self.seed,
            "models": [_entry_payload(self.entries[key]) for key in sorted(self.entries)],
            "compositing": _entry_payload(self.compositing) if self.compositing else None,
            "failures": self.failures,
            "warnings": self.all_warnings(),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ModelSuite":
        schema = payload.get("schema")
        if schema != MODELS_SCHEMA_VERSION:
            raise ValueError(
                f"models.json schema {schema!r} is not the supported {MODELS_SCHEMA_VERSION}"
            )
        suite = cls(folds=int(payload.get("folds", 3)), seed=int(payload.get("seed", 2016)))
        for entry_payload in payload.get("models", []):
            entry = _entry_from_payload(entry_payload)
            suite.entries[entry.key] = entry
        if payload.get("compositing"):
            suite.compositing = _entry_from_payload(payload["compositing"])
        suite.failures = [dict(failure) for failure in payload.get("failures", [])]
        return suite

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ModelSuite":
        with open(path, encoding="utf-8") as handle:
            return cls.from_payload(json.load(handle))


# -- payload helpers ------------------------------------------------------------------


def _failure(
    architecture: str, technique: str, num_rows: int, error: Exception, reason: str = "degenerate-fit"
) -> dict:
    return {
        "architecture": architecture,
        "technique": technique,
        "reason": reason,
        "error_type": type(error).__name__,
        "message": str(error),
        "num_rows": num_rows,
    }


def _fit_payload(fit: LinearRegressionResult) -> dict:
    return {
        "term_names": list(fit.term_names),
        "coefficients": [float(value) for value in fit.coefficients],
        "r_squared": float(fit.r_squared),
        "residual_std": float(fit.residual_std),
        "num_observations": int(fit.num_observations),
    }


def _fit_from_payload(payload: dict) -> LinearRegressionResult:
    return LinearRegressionResult(
        coefficients=np.asarray(payload["coefficients"], dtype=np.float64),
        r_squared=float(payload["r_squared"]),
        residual_std=float(payload["residual_std"]),
        num_observations=int(payload["num_observations"]),
        term_names=tuple(payload.get("term_names", ())),
    )


def _entry_payload(entry: FittedModel) -> dict:
    crossval = None
    if entry.crossval_accuracy is not None:
        crossval = {"accuracy": entry.crossval_accuracy}
        if entry.crossval is not None:
            crossval["num_folds"] = entry.crossval.num_folds
            crossval["fold_r_squared"] = [float(v) for v in entry.crossval.fold_r_squared]
    return {
        "architecture": entry.architecture,
        "technique": entry.technique,
        "num_rows": entry.num_rows,
        "fits": {name: _fit_payload(fit) for name, fit in entry.model.fits.items()},
        "diagnostics": entry.diagnostics(),
        "crossval": crossval,
        "crossval_skipped": entry.crossval_skipped,
        "warnings": entry.warnings,
    }


def _entry_from_payload(payload: dict) -> FittedModel:
    technique = payload["technique"]
    model = make_model(technique)
    model.fits = {group.name: _fit_from_payload(payload["fits"][group.name]) for group in model.groups}
    crossval = payload.get("crossval") or None
    return FittedModel(
        architecture=payload["architecture"],
        technique=technique,
        model=model,
        num_rows=int(payload["num_rows"]),
        crossval_accuracy=crossval["accuracy"] if crossval else None,
        crossval_skipped=payload.get("crossval_skipped", ""),
        warnings=[dict(warning) for warning in payload.get("warnings", [])],
    )
