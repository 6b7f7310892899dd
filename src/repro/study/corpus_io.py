"""Row-level corpus serialization: records <-> JSON payloads, files, merging.

One schema serves three consumers: the executor (worker processes return row
payloads, not pickled dataclasses), the corpus cache (entries store the same
payloads), and the CLI (``run --out corpus.json``, ``merge``, ``fit``).  The
schema is documented in DESIGN.md ("Corpus row schema"); ``SCHEMA_VERSION``
guards shape changes.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.modeling.study import (
    CompositingRecord,
    ExperimentRecord,
    FailureRecord,
    StudyCorpus,
)
from repro.rendering.result import ObservedFeatures

__all__ = [
    "SCHEMA_VERSION",
    "experiment_record_to_payload",
    "experiment_record_from_payload",
    "compositing_record_to_payload",
    "compositing_record_from_payload",
    "failure_record_to_payload",
    "failure_record_from_payload",
    "record_from_payload",
    "corpus_to_payload",
    "corpus_from_payload",
    "corpus_digest",
    "save_corpus",
    "load_corpus",
    "merge_corpora",
]

SCHEMA_VERSION = 1


# -- rendering rows -------------------------------------------------------------------

def experiment_record_to_payload(record: ExperimentRecord) -> dict:
    return {
        "row_type": "experiment",
        "architecture": record.architecture,
        "technique": record.technique,
        "simulation": record.simulation,
        "num_tasks": record.num_tasks,
        "cells_per_task": record.cells_per_task,
        "image_width": record.image_width,
        "image_height": record.image_height,
        "features": {
            "objects": record.features.objects,
            "active_pixels": record.features.active_pixels,
            "visible_objects": record.features.visible_objects,
            "pixels_per_triangle": record.features.pixels_per_triangle,
            "samples_per_ray": record.features.samples_per_ray,
            "cells_spanned": record.features.cells_spanned,
        },
        "phase_seconds": dict(record.phase_seconds),
        "build_seconds": record.build_seconds,
        "frame_seconds": record.frame_seconds,
        "samples_in_depth": record.samples_in_depth,
        "dpp_device": record.dpp_device,
    }


def experiment_record_from_payload(payload: dict) -> ExperimentRecord:
    features = payload["features"]
    return ExperimentRecord(
        architecture=payload["architecture"],
        technique=payload["technique"],
        simulation=payload["simulation"],
        num_tasks=int(payload["num_tasks"]),
        cells_per_task=int(payload["cells_per_task"]),
        image_width=int(payload["image_width"]),
        image_height=int(payload["image_height"]),
        features=ObservedFeatures(
            objects=int(features["objects"]),
            active_pixels=int(features["active_pixels"]),
            visible_objects=int(features["visible_objects"]),
            pixels_per_triangle=float(features["pixels_per_triangle"]),
            samples_per_ray=float(features["samples_per_ray"]),
            cells_spanned=int(features["cells_spanned"]),
        ),
        phase_seconds={name: float(value) for name, value in payload["phase_seconds"].items()},
        build_seconds=float(payload["build_seconds"]),
        frame_seconds=float(payload["frame_seconds"]),
        samples_in_depth=int(payload.get("samples_in_depth", 0)),
        dpp_device=payload.get("dpp_device", ""),
    )


# -- compositing rows -----------------------------------------------------------------

def compositing_record_to_payload(record: CompositingRecord) -> dict:
    return {
        "row_type": "compositing",
        "num_tasks": record.num_tasks,
        "pixels": record.pixels,
        "average_active_pixels": record.average_active_pixels,
        "seconds": record.seconds,
        "algorithm": record.algorithm,
    }


def compositing_record_from_payload(payload: dict) -> CompositingRecord:
    return CompositingRecord(
        num_tasks=int(payload["num_tasks"]),
        pixels=int(payload["pixels"]),
        average_active_pixels=float(payload["average_active_pixels"]),
        seconds=float(payload["seconds"]),
        algorithm=payload.get("algorithm", "radix-k"),
    )


# -- failure rows ---------------------------------------------------------------------

def failure_record_to_payload(record: FailureRecord) -> dict:
    return {
        "row_type": "failure",
        "kind": record.kind,
        "reason": record.reason,
        "spec": dict(record.spec),
        "error_type": record.error_type,
        "message": record.message,
    }


def failure_record_from_payload(payload: dict) -> FailureRecord:
    return FailureRecord(
        kind=payload["kind"],
        reason=payload["reason"],
        spec=dict(payload.get("spec", {})),
        error_type=payload.get("error_type", ""),
        message=payload.get("message", ""),
    )


# -- whole corpora --------------------------------------------------------------------

def record_from_payload(payload: dict):
    """Dispatch on ``row_type`` (the form the executor and cache traffic in)."""
    row_type = payload.get("row_type")
    if row_type == "experiment":
        return experiment_record_from_payload(payload)
    if row_type == "compositing":
        return compositing_record_from_payload(payload)
    if row_type == "failure":
        return failure_record_from_payload(payload)
    raise ValueError(f"unknown corpus row type {row_type!r}")


def corpus_to_payload(corpus: StudyCorpus, metadata: dict | None = None) -> dict:
    payload = {
        "schema": SCHEMA_VERSION,
        "records": [experiment_record_to_payload(r) for r in corpus.records],
        "compositing_records": [compositing_record_to_payload(r) for r in corpus.compositing_records],
        "failures": [failure_record_to_payload(r) for r in corpus.failures],
    }
    if metadata:
        payload["metadata"] = metadata
    return payload


def corpus_from_payload(payload: dict) -> StudyCorpus:
    """Rebuild a corpus; tolerates payloads without a ``failures`` section."""
    schema = payload.get("schema", SCHEMA_VERSION)
    if schema > SCHEMA_VERSION:
        raise ValueError(f"corpus schema {schema} is newer than supported {SCHEMA_VERSION}")
    return StudyCorpus(
        records=[experiment_record_from_payload(r) for r in payload.get("records", [])],
        compositing_records=[
            compositing_record_from_payload(r) for r in payload.get("compositing_records", [])
        ],
        failures=[failure_record_from_payload(r) for r in payload.get("failures", [])],
    )


def corpus_digest(corpus: StudyCorpus) -> str:
    """Content digest of a corpus (sha256 over the canonical row payload).

    Metadata is excluded on purpose: two corpus files holding the same rows
    hash identically, so report artifacts regenerated from either are
    byte-for-byte the same.
    """
    canonical = json.dumps(corpus_to_payload(corpus), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def save_corpus(corpus: StudyCorpus, path: str | Path, metadata: dict | None = None) -> Path:
    """Write the corpus file atomically: a reader (or an interrupted ``run
    --out``) finds the previous complete file or the new one, never a prefix."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(corpus_to_payload(corpus, metadata), handle, indent=1)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    return path


def load_corpus(path: str | Path) -> StudyCorpus:
    with open(path, encoding="utf-8") as handle:
        return corpus_from_payload(json.load(handle))


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
