"""The learning-curve ledger: error-vs-corpus-size rows in ``BENCH_learning.json``.

Each adaptive round (and the final refit after the last round) appends one
row recording where the models stood *before* that round's batch ran: corpus
size, per-slice cross-validated error (:meth:`ModelSuite.slice_errors`), and
the mean/max prediction-interval width over the remaining candidate pool.
Plotted over rows, this is the active-learning trajectory -- the CI artifact
that makes "did the adaptive sweep actually reduce uncertainty?" a question
with a versioned, diffable answer instead of a vibe.

The file schema is versioned (``LEARNING_SCHEMA_VERSION``); loading an
absent file yields an empty ledger, loading a *newer* schema raises (old
readers must not silently misread rows written by a future writer).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.modeling.study import corpus_digest
from repro.reporting.predictor import DEFAULT_INTERVAL_SIGMAS
from repro.study.plan import spec_corpus_key
from repro.util.files import atomic_write

__all__ = [
    "LEARNING_SCHEMA_VERSION",
    "trajectory_row",
    "load_trajectory",
    "append_trajectory_rows",
    "format_markdown",
]

#: Version guard of the ``BENCH_learning.json`` ledger.
LEARNING_SCHEMA_VERSION = 1

#: The most recent rows :func:`format_markdown` tabulates.
MARKDOWN_ROWS = 20


def trajectory_row(corpus, suite, selection, round_index: int = 0) -> dict:
    """One learning-curve row: the model state this round's selection saw.

    ``selection`` is an :class:`~repro.study.adaptive.AdaptiveSelection`; its
    candidate pool's interval widths summarize the uncertainty still on the
    table, and its selected specs' corpus keys are recorded so CI can assert
    that no later round re-selects them.
    """
    return {
        "round": int(round_index),
        "corpus_digest": corpus_digest(corpus),
        "corpus_size": {
            "rendering_rows": len(corpus.records),
            "compositing_rows": len(corpus.compositing_records),
            "failures": len(corpus.failures),
            "total": len(corpus.records) + len(corpus.compositing_records),
        },
        "candidates": len(selection.candidates),
        "unknown_candidates": selection.unknown_candidates(),
        "deduplicated": selection.deduplicated,
        "mean_interval_width": selection.mean_interval_width(),
        "max_interval_width": selection.max_interval_width(),
        "sigmas": DEFAULT_INTERVAL_SIGMAS,
        "selected": [list(spec_corpus_key(c.spec)) for c in selection.selected],
        "slices": suite.slice_errors(),
    }


def load_trajectory(path: str | Path) -> dict:
    """Load a ledger, or an empty one if the file does not exist yet.

    Raises ``ValueError`` naming the file and the field for JSON of the wrong
    shape, and for a schema newer than this reader's.
    """
    path = Path(path)
    if not path.exists():
        return {"schema": LEARNING_SCHEMA_VERSION, "rows": []}
    try:
        payload = json.loads(path.read_text())
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: the ledger is a JSON {type(payload).__name__}, not an object")
    schema = payload.get("schema", 0)
    if type(schema) is not int:
        raise ValueError(f"{path}: ledger field 'schema' is {schema!r}, not an integer")
    if schema > LEARNING_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: BENCH_learning schema {schema} is newer than supported "
            f"{LEARNING_SCHEMA_VERSION}; refusing to append blind"
        )
    rows = payload.setdefault("rows", [])
    if not isinstance(rows, list):
        raise ValueError(f"{path}: ledger field 'rows' is a JSON {type(rows).__name__}, not a list")
    return payload


def append_trajectory_rows(path: str | Path, rows: list[dict]) -> dict:
    """Append rows to the ledger at ``path`` (created if absent); returns it."""
    path = Path(path)
    payload = load_trajectory(path)
    payload["schema"] = LEARNING_SCHEMA_VERSION
    payload["rows"].extend(rows)
    with atomic_write(path) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def format_markdown(payload: dict) -> str:
    """The ledger's last :data:`MARKDOWN_ROWS` rows as a Markdown table (``$GITHUB_STEP_SUMMARY``)."""
    rows = payload.get("rows", [])[-MARKDOWN_ROWS:]
    lines = [
        "## Adaptive learning curve",
        "",
        "| round | corpus rows | candidates | unfit slices' candidates | mean width (s) | max width (s) |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for row in rows:
        mean = row.get("mean_interval_width")
        peak = row.get("max_interval_width")
        lines.append(
            "| {round} | {total} | {candidates} | {unknown} | {mean} | {peak} |".format(
                round=row.get("round", "?"),
                total=row.get("corpus_size", {}).get("total", "?"),
                candidates=row.get("candidates", "?"),
                unknown=row.get("unknown_candidates", "?"),
                mean="-" if mean is None else f"{mean:.4f}",
                peak="-" if peak is None else f"{peak:.4f}",
            )
        )
    if not rows:
        lines.append("| - | - | - | - | - | - |")
    return "\n".join(lines) + "\n"
