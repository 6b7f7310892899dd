"""The study's data model: the sweep configuration and the regression corpus.

The paper's study runs 1,350 experiments over {architecture x rendering
technique x simulation code x MPI task count x image resolution x data size},
keeps the slowest MPI task of each, and fits the per-technique models to the
resulting corpus.  This module holds what that pipeline passes around:

* :class:`StudyConfiguration` -- the sweep's axes and knobs, with the
  stratified (image size, data size) sampling the paper uses for its
  resolution/size space;
* :class:`ExperimentRecord` / :class:`CompositingRecord` /
  :class:`FailureRecord` -- one row each of the rendering corpus, the
  Eq. 5.5 compositing corpus, and the failed experiments of a sweep;
* :class:`StudyCorpus` -- the gathered rows, their selection and slices;
* :func:`model_inputs` -- the one place a slice becomes a model plus its
  regression inputs, which :meth:`repro.reporting.ModelSuite.fit_corpus`
  fits and cross-validates (Tables 12-14 and 17, Figures 11-13);
* the row codecs (records <-> JSON payloads) and :func:`corpus_digest`: the
  one schema workers, the row cache and corpus files carry.

Running the sweep is :mod:`repro.study`'s job: ``build_plan`` enumerates the
configuration into specs, :mod:`repro.study.experiments` turns a spec into a
row, and :func:`repro.study.run_study` is the one configuration -> corpus
call.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields

import numpy as np

from repro.modeling.crossval import FOLDS
from repro.modeling.features import SAMPLES_IN_DEPTH, compositing_features_from_result, feature_arrays
from repro.modeling.models import PerformanceModel, make_model
from repro.techniques import ObservedFeatures

__all__ = [
    "HOST_ARCHITECTURE",
    "COMPOSITING_ARCHITECTURE",
    "StudyConfiguration",
    "ExperimentRecord",
    "CompositingRecord",
    "FailureRecord",
    "StudyCorpus",
    "model_inputs",
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
]

#: Host architecture name whose timings are real measurements.
HOST_ARCHITECTURE = "cpu-host"

#: Placeholder architecture label of the (architecture-independent) Eq. 5.5
#: slice of a fitted suite.
COMPOSITING_ARCHITECTURE = "-"

#: Which measured time of an :class:`ExperimentRecord` each term group is fit to.
_GROUP_TARGET = {"build": "build_seconds", "frame": "frame_seconds", "fit": "total_seconds"}


# ---------------------------------------------------------------------------
# Configuration and records
# ---------------------------------------------------------------------------

@dataclass
class StudyConfiguration:
    """Parameters of the sweep (scaled-down analogue of Section 5.4).

    Two size ranges exist because of the hardware substitution documented in
    DESIGN.md: ``cpu-host`` experiments actually render with the numpy
    renderers, so their image / data sizes are kept laptop-friendly
    (``image_size_range`` / ``cells_per_task_range``), while experiments for
    synthesized devices need no rendering and therefore use the paper's
    full-scale ranges (``synthetic_image_size_range`` /
    ``synthetic_cells_per_task_range``: 512^2-2880^2 pixels, 128^3-320^3
    cells per task) with inputs taken from the Section 5.8 mapping.
    """

    architectures: tuple[str, ...] = (HOST_ARCHITECTURE, "gpu1-k40m")
    #: DPP back-ends (``repro.dpp`` device names) the host renders run on.
    #: Each ``cpu-host`` configuration is rendered once per listed device --
    #: the real back-end swap of the paper's Table 5.  Synthesized
    #: architectures never render, so the axis does not apply to them.
    dpp_devices: tuple[str, ...] = ("vectorized",)
    techniques: tuple[str, ...] = ("raytrace", "raster", "volume")
    simulations: tuple[str, ...] = ("kripke", "cloverleaf", "lulesh")
    task_counts: tuple[int, ...] = (1, 2, 4, 8)
    samples_per_technique: int = 12
    image_size_range: tuple[int, int] = (64, 160)
    cells_per_task_range: tuple[int, int] = (8, 20)
    synthetic_image_size_range: tuple[int, int] = (512, 2880)
    synthetic_cells_per_task_range: tuple[int, int] = (128, 320)
    samples_in_depth: int = 60
    synthetic_samples_in_depth: int = SAMPLES_IN_DEPTH
    max_sampled_ranks: int = 2
    seed: int = 2016
    compositing_task_counts: tuple[int, ...] = (2, 4, 8, 16, 32, 64)
    compositing_pixel_sizes: tuple[int, ...] = (64, 96, 128, 192, 256)
    compositing_algorithms: tuple[str, ...] = ("radix-k",)
    #: Task counts above this budget run through the cohort scheduler
    #: (:meth:`repro.compositing.Compositor.composite_streaming`) instead of
    #: materializing every rank's framebuffer, which is how the sweep reaches
    #: thousand-rank rows in bounded memory.
    compositing_max_live_ranks: int = 256
    #: Explicit radix schedule for ``"radix-k"`` rows; ``None`` factors the
    #: task count.  The product must equal every swept task count
    #: (:class:`repro.compositing.RadixFactorError` otherwise).
    compositing_radices: tuple[int, ...] | None = None
    #: Scene family for streamed (above-budget) compositing rows -- a key of
    #: :data:`repro.compositing.SCENARIOS` (``uniform``/``amr``/``camera-orbit``).
    compositing_scenario: str = "uniform"

    def stratified_samples(
        self, rng: np.random.Generator, synthetic: bool = False
    ) -> list[tuple[int, int, int, str]]:
        """Stratified (image size, cells per task, tasks, simulation) samples.

        Image size and data size are stratified over their ranges (Latin-
        hypercube style: one sample per stratum with random jitter), while
        task count and simulation cycle through their option lists.
        """
        count = self.samples_per_technique
        image_lo, image_hi = self.synthetic_image_size_range if synthetic else self.image_size_range
        cells_lo, cells_hi = (
            self.synthetic_cells_per_task_range if synthetic else self.cells_per_task_range
        )
        image_edges = np.linspace(image_lo, image_hi, count + 1)
        cells_edges = np.linspace(cells_lo, cells_hi, count + 1)
        image_sizes = rng.uniform(image_edges[:-1], image_edges[1:]).astype(int)
        cells_sizes = rng.uniform(cells_edges[:-1], cells_edges[1:]).astype(int)
        rng.shuffle(cells_sizes)
        samples = []
        for index in range(count):
            tasks = self.task_counts[index % len(self.task_counts)]
            simulation = self.simulations[index % len(self.simulations)]
            samples.append((int(image_sizes[index]), int(cells_sizes[index]), tasks, simulation))
        return samples


@dataclass
class ExperimentRecord:
    """One row of the rendering corpus: the slowest task of one experiment (Section 5.4).

    On host rows "slowest" is the sampled rank with the largest observed
    workload -- ``(active_pixels, objects)``, lowest rank on a tie -- and its
    features and phase times are the row; sampled ranks whose pixel bound
    shows they cannot be that rank are never rendered
    (:func:`repro.study.experiments.run_experiment`).  Synthesized rows take
    their features from the Section 5.8 mapping instead.
    """

    architecture: str
    technique: str
    simulation: str
    num_tasks: int
    cells_per_task: int
    image_width: int
    image_height: int
    features: ObservedFeatures
    phase_seconds: dict[str, float]
    build_seconds: float
    frame_seconds: float
    #: Volume-sampling depth the experiment rendered (or mapped) with; 0 on
    #: rows from pre-recording corpora.  The Table 16 mapping validation uses
    #: it so the a-priori SPR term matches the experiment being validated.
    samples_in_depth: int = 0
    #: DPP back-end the host render executed on ("" on synthesized rows and
    #: rows from pre-device-matrix corpora).
    dpp_device: str = ""

    @property
    def total_seconds(self) -> float:
        return self.build_seconds + self.frame_seconds

    @property
    def pixels(self) -> int:
        return self.image_width * self.image_height


@dataclass
class CompositingRecord:
    """One row of the compositing corpus."""

    num_tasks: int
    pixels: int
    average_active_pixels: float
    seconds: float
    algorithm: str = "radix-k"

    @classmethod
    def from_result(cls, result, seconds: float, algorithm: str = "radix-k") -> "CompositingRecord":
        """Build a row from a :class:`~repro.compositing.CompositeResult`.

        ``avg(AP)`` is threaded through
        :func:`repro.modeling.features.compositing_features_from_result`, so
        the corpus consumes the run-length engine's mode-aware active-pixel
        accounting unchanged in meaning.
        """
        features = compositing_features_from_result(result)
        return cls(
            num_tasks=features.num_tasks,
            pixels=features.pixels,
            average_active_pixels=features.average_active_pixels,
            seconds=seconds,
            algorithm=algorithm,
        )


@dataclass
class FailureRecord:
    """One failed experiment of a sweep (the config, not a corpus row).

    A sweep never dies because one configuration does: the executor isolates
    crashes, Python exceptions, and per-experiment timeouts, and records them
    here so ``plan - records == failures`` always holds.  Failure rows carry
    no measurements and are therefore ignored by every fitting and
    cross-validation entry point.
    """

    kind: str  #: ``"render"`` | ``"synthetic"`` | ``"compositing"``
    reason: str  #: ``"error"`` | ``"timeout"`` | ``"crash"``
    spec: dict = field(default_factory=dict)  #: config keys of the failed experiment
    error_type: str = ""
    message: str = ""


@dataclass
class StudyCorpus:
    """The gathered experiment corpus: rendering, compositing and failure rows."""

    records: list[ExperimentRecord] = field(default_factory=list)
    compositing_records: list[CompositingRecord] = field(default_factory=list)
    failures: list[FailureRecord] = field(default_factory=list)

    # -- selection ------------------------------------------------------------------
    def select(
        self,
        architecture: str | None = None,
        technique: str | None = None,
        dpp_device: str | None = None,
    ) -> list[ExperimentRecord]:
        """Records matching the given architecture, technique, and/or device.

        ``dpp_device`` filters multi-back-end sweeps (device-comparison runs)
        down to one back-end so its timings are never folded into another
        back-end's fitted model.
        """
        out = self.records
        if architecture is not None:
            out = [r for r in out if r.architecture == architecture]
        if technique is not None:
            out = [r for r in out if r.technique == technique]
        if dpp_device is not None:
            out = [r for r in out if r.dpp_device == dpp_device]
        return out

    def architectures(self) -> list[str]:
        return sorted({r.architecture for r in self.records})

    def techniques(self) -> list[str]:
        return sorted({r.technique for r in self.records})

    def slices(self):
        """Yield every non-empty ``(architecture, technique, rows)`` slice.

        Deterministic (sorted) order -- the reporting suite iterates this to
        fit the full model registry, so artifact files never depend on record
        insertion order.
        """
        for architecture in self.architectures():
            for technique in self.techniques():
                rows = self.select(architecture, technique)
                if rows:
                    yield architecture, technique, rows

    # -- cross validation ------------------------------------------------------------------
    def cross_validate(self, architecture: str, technique: str, k: int = FOLDS, seed: int | None = None):
        """K-fold cross validation of one slice, kept only for ``benchmarks/e2e/probes.py``.

        :meth:`repro.reporting.ModelSuite.fit_corpus` is the fitter.  This
        delegate goes with the benchmark revision that drops the probe's call
        (ROADMAP, "The benchmark record measures right").
        """
        compositing = technique == "compositing"
        rows = self.compositing_records if compositing else self.select(architecture, technique)
        model, arrays, targets = model_inputs(technique, rows)
        return model.cross_validate(arrays, *targets, k=k, seed=seed)


def model_inputs(
    technique: str, rows: list
) -> tuple[PerformanceModel, dict[str, np.ndarray], list[np.ndarray]]:
    """``(model, arrays, targets)`` of one corpus slice; an unknown technique raises.

    The one place a slice becomes regression inputs.  ``rows`` are the
    slice's :class:`ExperimentRecord` rows, or :class:`CompositingRecord`
    rows (which carry no architecture) when ``technique`` is
    ``"compositing"``.  Either way the model sees feature column arrays plus
    one target per term group.
    """
    model = make_model(technique)
    if technique == "compositing":
        arrays = {
            "average_active_pixels": np.array([row.average_active_pixels for row in rows], dtype=np.float64),
            "pixels": np.array([row.pixels for row in rows], dtype=np.float64),
        }
        targets = [np.array([row.seconds for row in rows])]
    else:
        arrays = feature_arrays([row.features for row in rows])
        targets = [
            np.array([getattr(row, _GROUP_TARGET[group.name]) for row in rows]) for group in model.groups
        ]
    return model, arrays, targets


# -- row codecs: records <-> JSON payloads --------------------------------------------
# One schema serves the executor (worker processes return row payloads, not
# pickled dataclasses), the corpus cache (entries store the same payloads) and
# corpus files.  DESIGN.md ("Corpus row schema") documents it; ``SCHEMA_VERSION``
# guards shape changes.

SCHEMA_VERSION = 1


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
        "features": {item.name: getattr(record.features, item.name) for item in fields(ObservedFeatures)},
        "phase_seconds": dict(record.phase_seconds),
        "build_seconds": record.build_seconds,
        "frame_seconds": record.frame_seconds,
        "samples_in_depth": record.samples_in_depth,
        "dpp_device": record.dpp_device,
    }


def experiment_record_from_payload(payload: dict) -> ExperimentRecord:
    return ExperimentRecord(
        architecture=payload["architecture"],
        technique=payload["technique"],
        simulation=payload["simulation"],
        num_tasks=int(payload["num_tasks"]),
        cells_per_task=int(payload["cells_per_task"]),
        image_width=int(payload["image_width"]),
        image_height=int(payload["image_height"]),
        features=ObservedFeatures.from_columns(payload["features"]),
        phase_seconds={name: float(value) for name, value in payload["phase_seconds"].items()},
        build_seconds=float(payload["build_seconds"]),
        frame_seconds=float(payload["frame_seconds"]),
        samples_in_depth=int(payload.get("samples_in_depth", 0)),
        dpp_device=payload.get("dpp_device", ""),
    )


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


def corpus_from_payload(payload: object) -> StudyCorpus:
    """Rebuild a corpus; tolerates payloads without a ``failures`` section.

    Raises ``ValueError`` naming the field for JSON of the wrong shape: a
    payload that is not an object, a ``schema`` that is not an integer up to
    :data:`SCHEMA_VERSION`, or a row section that is not a list of rows.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"the corpus is a JSON {type(payload).__name__}, not an object")
    schema = payload.get("schema", SCHEMA_VERSION)
    if type(schema) is not int:
        raise ValueError(f"corpus field 'schema' is {schema!r}, not an integer")
    if schema > SCHEMA_VERSION:
        raise ValueError(f"corpus schema {schema} is newer than supported {SCHEMA_VERSION}")
    sections = {}
    for name, decode in (
        ("records", experiment_record_from_payload),
        ("compositing_records", compositing_record_from_payload),
        ("failures", failure_record_from_payload),
    ):
        rows = payload.get(name, [])
        try:
            if not isinstance(rows, list):
                raise TypeError(f"a JSON {type(rows).__name__}")
            sections[name] = [decode(row) for row in rows]
        except (AttributeError, LookupError, TypeError, ValueError) as error:
            detail = f"{type(error).__name__}: {error}"
            raise ValueError(f"corpus field {name!r} is not a list of rows ({detail})") from None
    return StudyCorpus(**sections)


def corpus_digest(corpus: StudyCorpus) -> str:
    """Content digest of a corpus (sha256 over the canonical row payload).

    Metadata is excluded on purpose: two corpus files holding the same rows
    hash identically, so report artifacts regenerated from either are
    byte-for-byte the same.
    """
    canonical = json.dumps(corpus_to_payload(corpus), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
