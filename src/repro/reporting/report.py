"""Corpus -> paper-artifact orchestration (``python -m repro.study report``).

:func:`generate_report` is a pure function of the corpus: it fits the
:class:`~repro.reporting.suite.ModelSuite`, writes ``models.json``, runs every
table and figure emitter, and assembles the manifest (``report.json``) plus
the consolidated Markdown bundle (``report.md``) CI publishes to the job
summary.  Nothing in the tree depends on wall-clock time, process identity, or
dictionary insertion order, so regenerating a report from the same corpus is
byte-for-byte identical -- the property CI asserts on every smoke sweep.

Output layout (under ``out_dir``)::

    models.json                  the versioned fitted-model registry
    report.json                  manifest: corpus digest, fits, failures, files
    report.md                    all tables/figures as Markdown (CI job summary)
    tables/table{12..17}_*.json  machine-checkable table payloads
    tables/table{12..17}_*.md    per-table Markdown
    figures/fig{11..15}_*.json   figure data series
    figures/fig{11..15}_*.md     per-figure Markdown summaries
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.modeling.crossval import FOLDS
from repro.modeling.study import StudyCorpus, corpus_digest
from repro.reporting.figures import FIGURE_EMITTERS
from repro.reporting.suite import ModelSuite
from repro.reporting.tables import TABLE_EMITTERS
from repro.util.files import atomic_write

__all__ = ["REPORT_SCHEMA_VERSION", "ReportResult", "generate_report"]

#: Version guard of the ``report.json`` manifest schema.
REPORT_SCHEMA_VERSION = 1


@dataclass
class ReportResult:
    """Everything one report run produced."""

    suite: ModelSuite
    manifest: dict
    out_dir: Path
    paths: list[Path] = field(default_factory=list)

    @property
    def markdown_path(self) -> Path:
        return self.out_dir / "report.md"

    @property
    def models_path(self) -> Path:
        return self.out_dir / "models.json"


def _write(path: Path, text: str) -> Path:
    with atomic_write(path) as handle:
        handle.write(text)
    return path


def _write_json(path: Path, payload: dict) -> Path:
    return _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def generate_report(corpus: StudyCorpus, out_dir: str | Path, seed: int = 2016) -> ReportResult:
    """Turn a study corpus into the full paper-artifact tree.

    Never raises on degenerate corpora: every slice that cannot be fitted is a
    structured failure in the manifest, and emitters record unavailable
    sections instead of dying.  Callers that need the all-degenerate case to
    be an error (the CLI) check :meth:`ModelSuite.is_empty` on the result.
    """
    out_dir = Path(out_dir)
    suite = ModelSuite.fit_corpus(corpus, seed=seed)
    paths: list[Path] = []
    markdown_parts: list[str] = []

    paths.append(suite.save(out_dir / "models.json"))

    for group, emitters in (("tables", TABLE_EMITTERS), ("figures", FIGURE_EMITTERS)):
        for slug, emitter in emitters.items():
            payload, markdown = emitter(suite, corpus)
            paths.append(_write_json(out_dir / group / f"{slug}.json", payload))
            paths.append(_write(out_dir / group / f"{slug}.md", markdown))
            markdown_parts.append(markdown)

    digest = corpus_digest(corpus)
    manifest = {
        "schema": REPORT_SCHEMA_VERSION,
        "corpus": {
            "digest": digest,
            "records": len(corpus.records),
            "compositing_records": len(corpus.compositing_records),
            "failures": len(corpus.failures),
        },
        "folds": FOLDS,
        "seed": seed,
        "fitted": [list(key) for key in sorted(suite.entries)],
        "compositing_fitted": suite.compositing is not None,
        "fit_failures": suite.failures,
        "warnings": suite.all_warnings(),
        "artifacts": sorted(str(path.relative_to(out_dir)) for path in paths),
    }
    paths.append(_write_json(out_dir / "report.json", manifest))

    header = [
        "# Study report: fitted models, accuracy, and feasibility",
        "",
        f"- corpus digest: `{digest}`",
        f"- rendering rows: {len(corpus.records)}, compositing rows: "
        f"{len(corpus.compositing_records)}, sweep failures: {len(corpus.failures)}",
        f"- fitted models: {len(suite.entries)}"
        + (" + compositing" if suite.compositing is not None else ""),
        f"- cross validation: {FOLDS}-fold, seed {seed}",
        "",
    ]
    warnings = suite.all_warnings()
    if suite.failures or warnings:
        header.append("## Diagnostics")
        header.append("")
        for failure in suite.failures:
            header.append(
                f"- DEGENERATE FIT `{failure['architecture']}/{failure['technique']}`: "
                f"{failure['message']} ({failure['num_rows']} rows)"
            )
        for warning in warnings:
            detail = {
                key: value
                for key, value in warning.items()
                if key not in ("kind", "architecture", "technique")
            }
            header.append(
                f"- {warning['kind'].upper()} `{warning['architecture']}/{warning['technique']}`: "
                f"{json.dumps(detail, sort_keys=True)}"
            )
        header.append("")
    markdown = "\n".join(header) + "\n" + "\n".join(markdown_parts)
    paths.append(_write(out_dir / "report.md", markdown))

    return ReportResult(suite=suite, manifest=manifest, out_dir=out_dir, paths=paths)
