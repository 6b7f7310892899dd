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
in-memory suite's predictions bit for bit.  The file stores each fitted fact
once; the warnings are derived from the fits (:attr:`FittedModel.warnings`)
wherever the suite came from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.modeling.crossval import FOLDS, CrossValidationSummary
from repro.modeling.models import PerformanceModel, make_model
from repro.modeling.regression import LinearRegressionResult
from repro.modeling.study import COMPOSITING_ARCHITECTURE, StudyCorpus, model_inputs
from repro.techniques import TermGroup
from repro.util.files import atomic_write

__all__ = [
    "MODELS_SCHEMA_VERSION",
    "COMPOSITING_ARCHITECTURE",
    "LOW_R_SQUARED_FLOOR",
    "FittedModel",
    "ModelSuite",
    "negative_coefficients",
]

#: Version guard of the ``models.json`` schema.
MODELS_SCHEMA_VERSION = 2

#: Fits explaining less variance than this are flagged with a structured
#: warning (the paper's weakest usable model, compositing, sits near 0.7).
LOW_R_SQUARED_FLOOR = 0.5


@dataclass
class FittedModel:
    """One fitted model plus its accuracy summary; its warnings derive from both.

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

    @property
    def key(self) -> tuple[str, str]:
        return (self.architecture, self.technique)

    @property
    def warnings(self) -> list[dict]:
        """The structured red flags of this entry, derived from its fits and ``crossval_skipped``.

        In order: every negative coefficient (the renderer models are fit
        with a non-negativity constraint, so these fire mainly on the
        plain-OLS compositing fit -- the paper's rule that no input variable
        may have a negative linear relationship to run-time), every group
        whose R-squared is below :data:`LOW_R_SQUARED_FLOOR`, then a skipped
        cross validation.  ``models.json`` stores none of them: a loaded
        suite derives the same list from the same fits.
        """
        warnings = []
        where = {"architecture": self.architecture, "technique": self.technique}
        for group, fit in self.model.fits.items():
            for term, value in negative_coefficients(fit).items():
                warnings.append(
                    {"kind": "negative_coefficient", **where, "group": group, "term": term, "value": value}
                )
        for group, fit in self.model.fits.items():
            if fit.r_squared < LOW_R_SQUARED_FLOOR:
                warnings.append(
                    {
                        "kind": "low_r_squared",
                        **where,
                        "group": group,
                        "value": float(fit.r_squared),
                        "floor": LOW_R_SQUARED_FLOOR,
                    }
                )
        if self.crossval_skipped:
            warnings.append({"kind": "crossval_skipped", **where, "message": self.crossval_skipped})
        return warnings


def negative_coefficients(fit: LinearRegressionResult) -> dict[str, float]:
    """The terms of ``fit`` whose coefficient is negative (the warnings' and Table 17's one test)."""
    return {term: value for term, value in fit.named_coefficients().items() if value < 0.0}


@dataclass
class ModelSuite:
    """Every model the corpus supports, fitted, validated, and serializable."""

    entries: dict[tuple[str, str], FittedModel] = field(default_factory=dict)
    compositing: FittedModel | None = None
    failures: list[dict] = field(default_factory=list)
    seed: int = 2016

    # -- fitting -----------------------------------------------------------------------
    @classmethod
    def fit_corpus(cls, corpus: StudyCorpus, seed: int = 2016) -> "ModelSuite":
        """Fit the full registry from a corpus in one call.

        The only code that fits or cross-validates a corpus slice: each
        slice's ``(model, arrays, targets)`` comes from
        :func:`repro.modeling.study.model_inputs` once, the model is fit on
        those arrays, and the :data:`~repro.modeling.crossval.FOLDS`-fold
        cross validation runs on the same ones.
        Degenerate slices (too few rows for the slice's coefficient count,
        singular designs, ...) become structured entries in :attr:`failures`
        rather than exceptions: a partially-degenerate corpus still yields
        every model it can support, and callers can tell exactly what was
        skipped and why.  A slice whose rows come from more than one dpp
        device is a ``mixed-devices`` failure: one back-end's timings never
        reach another back-end's model.
        """
        suite = cls(seed=seed)
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
            try:
                entry.crossval = model.cross_validate(arrays, *targets, k=FOLDS, seed=seed)
                entry.crossval_accuracy = entry.crossval.accuracy_row()
            except Exception as error:  # noqa: BLE001 -- e.g. too few rows (ValueError),
                # nnls non-convergence (RuntimeError), singular folds (LinAlgError):
                # a pathological fold must degrade to a warning, not kill the report.
                entry.crossval_skipped = str(error) or type(error).__name__
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
            "folds": FOLDS,
            "seed": self.seed,
            "models": [_entry_payload(self.entries[key]) for key in sorted(self.entries)],
            "compositing": _entry_payload(self.compositing) if self.compositing else None,
            "failures": self.failures,
        }

    @classmethod
    def from_payload(cls, payload: object) -> "ModelSuite":
        """The suite a ``models.json`` payload holds; ``ValueError`` for any payload it cannot read.

        A reader of the file (the serving tier's hot reload among them) then
        has one exception to catch, whatever the JSON held: a list, ``null``,
        a number, or a suite object whose entries are not entry objects.
        """
        if not isinstance(payload, dict):
            raise ValueError(f"models.json holds a {type(payload).__name__}, not a suite object")
        schema = payload.get("schema")
        if schema != MODELS_SCHEMA_VERSION:
            raise ValueError(
                f"models.json schema {schema!r} is not the supported {MODELS_SCHEMA_VERSION}"
            )
        try:
            suite = cls(seed=int(payload.get("seed", 2016)))
            for entry_payload in payload.get("models", []):
                entry = _entry_from_payload(entry_payload)
                suite.entries[entry.key] = entry
            if payload.get("compositing"):
                suite.compositing = _entry_from_payload(payload["compositing"])
            suite.failures = [dict(failure) for failure in payload.get("failures", [])]
        except (AttributeError, LookupError, OverflowError, TypeError) as error:
            detail = f"{type(error).__name__}: {error}"
            raise ValueError(f"models.json is not a readable suite ({detail})") from error
        return suite

    def save(self, path: str | Path) -> Path:
        """Write ``models.json`` atomically (the serving tier reloads it in place)."""
        path = Path(path)
        with atomic_write(path) as handle:
            handle.write(json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n")
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


def _fit_from_payload(payload: dict, group: TermGroup) -> LinearRegressionResult:
    """One group's fit; ``ValueError`` unless its terms are the code's, in order, one coefficient each
    (any other fit would be served against the wrong work columns or fail inside a serving batch)."""
    fit = LinearRegressionResult(
        coefficients=np.asarray(payload["coefficients"], dtype=np.float64),
        r_squared=float(payload["r_squared"]),
        residual_std=float(payload["residual_std"]),
        num_observations=int(payload["num_observations"]),
        term_names=tuple(payload.get("term_names", ())),
    )
    if fit.term_names != group.term_names or fit.coefficients.shape != (len(group.term_names),):
        raise ValueError(
            f"models.json group {group.name!r} has terms {list(fit.term_names)} and "
            f"{fit.coefficients.size} coefficients; the code's are {list(group.term_names)}"
        )
    return fit


def _entry_payload(entry: FittedModel) -> dict:
    return {
        "architecture": entry.architecture,
        "technique": entry.technique,
        "num_rows": entry.num_rows,
        "fits": {name: _fit_payload(fit) for name, fit in entry.model.fits.items()},
        "crossval": entry.crossval_accuracy,
        "crossval_skipped": entry.crossval_skipped,
    }


def _entry_from_payload(payload: dict) -> FittedModel:
    technique = payload["technique"]
    model = make_model(technique)
    model.fits = {group.name: _fit_from_payload(payload["fits"][group.name], group) for group in model.groups}
    accuracy = payload["crossval"]
    if accuracy is not None:
        accuracy = {name: float(value) for name, value in accuracy.items()}
    skipped = payload["crossval_skipped"]
    if not isinstance(skipped, str):
        raise TypeError(f"crossval_skipped is a {type(skipped).__name__}, not a string")
    return FittedModel(
        architecture=payload["architecture"],
        technique=technique,
        model=model,
        num_rows=int(payload["num_rows"]),
        crossval_accuracy=accuracy,
        crossval_skipped=skipped,
    )
