"""The corpus-to-paper reporting subsystem.

Turns any study corpus (smoke or full) into the paper's deliverables and a
reusable prediction API:

* :mod:`repro.reporting.suite` -- :class:`ModelSuite`, the fitted-model
  registry: every (architecture, technique) model plus compositing fitted in
  one call, with k-fold accuracy, coefficient/residual diagnostics (negative
  coefficients promoted to structured warnings), and serialization to a
  versioned ``models.json``.
* :mod:`repro.reporting.tables` / :mod:`repro.reporting.figures` -- emitters
  for Tables 12-17 and Figures 11-15, each producing machine-checkable JSON
  plus human-readable Markdown.
* :mod:`repro.reporting.predictor` -- the vectorized batch :class:`Predictor`
  serving thousands of configurations per call with residual-std bounded-error
  intervals.
* :mod:`repro.reporting.report` -- :func:`generate_report`, the deterministic
  corpus -> artifact-tree orchestrator behind ``python -m repro.study report``.

The names below are resolved on first access (PEP 562), so a process that
only loads a suite and predicts -- the prediction server -- never imports the
report, table and figure emitters.
"""

from importlib import import_module

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "COMPOSITING_ARCHITECTURE": "suite",
    "DEFAULT_INTERVAL_SIGMAS": "predictor",
    "FittedModel": "suite",
    "MODELS_SCHEMA_VERSION": "suite",
    "ModelSuite": "suite",
    "PredictionBatch": "predictor",
    "Predictor": "predictor",
    "REPORT_SCHEMA_VERSION": "report",
    "ReportResult": "report",
    "generate_report": "report",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
