"""Corpus files: save / load (atomic) and merging.

The row codecs and :func:`corpus_digest` live with the rows in
:mod:`repro.modeling.study`.  ``corpus_digest`` and ``corpus_to_payload`` are
re-exported here because the frozen ``benchmarks/e2e`` and the CI steps import
them from this module (DESIGN.md, "Layering").
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.modeling.study import StudyCorpus, corpus_digest, corpus_from_payload, corpus_to_payload
from repro.util.files import atomic_write

__all__ = [
    "corpus_to_payload",
    "corpus_digest",
    "save_corpus",
    "load_corpus",
    "merge_corpora",
]


def save_corpus(corpus: StudyCorpus, path: str | Path, metadata: dict | None = None) -> Path:
    """Write the corpus file atomically: a reader (or an interrupted ``run
    --out``) finds the previous complete file or the new one, never a prefix."""
    path = Path(path)
    with atomic_write(path) as handle:
        json.dump(corpus_to_payload(corpus, metadata), handle, indent=1)
    return path


def load_corpus(path: str | Path) -> StudyCorpus:
    """The corpus in ``path``; ``ValueError`` naming the file for one that is not a corpus file."""
    with open(path, encoding="utf-8") as handle:
        try:
            return corpus_from_payload(json.load(handle))
        except ValueError as error:
            raise ValueError(f"{path}: {error}") from None


def merge_corpora(corpora: list[StudyCorpus]) -> StudyCorpus:
    """Concatenate corpora (rendering rows, compositing rows, and failures).

    Rows are kept in input order; no deduplication is attempted -- merging the
    same sweep twice doubles its weight, which is the caller's decision to
    make (e.g. merging per-architecture shards of one study).
    """
    merged = StudyCorpus()
    for corpus in corpora:
        merged.records.extend(corpus.records)
        merged.compositing_records.extend(corpus.compositing_records)
        merged.failures.extend(corpus.failures)
    return merged
