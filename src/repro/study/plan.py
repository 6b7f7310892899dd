"""Declarative sweep plans: matrix expansion of a :class:`StudyConfiguration`.

The paper's study is a 1,350-experiment matrix over {architecture x technique
x simulation x task count x resolution x data size}; this module turns a
:class:`~repro.modeling.study.StudyConfiguration` into the equivalent explicit
list of :class:`ExperimentSpec`\\ s *before* anything runs.  Expanding first is
what makes the rest of the engine possible:

* every stochastic choice (the stratified resolution/size samples) is drawn at
  plan time, so executing a spec is a pure function of the spec -- specs can be
  cached, distributed over a process pool, retried, or skipped without
  changing any other spec's result;
* the plan is serializable (``python -m repro.study plan --out plan.json``)
  and diffable, so a sweep is reviewable before it spends hours rendering;
* the plan order *is* the corpus order: the engine reassembles rows by spec
  index, which keeps a pool sweep row-for-row identical to the in-process
  ``jobs=1`` loop (the serial oracle).

:func:`build_plan` is the only enumeration of the matrix: one host-measured
pass per technique drawing from the ``"study"`` RNG stream, one synthesized
full-scale pass per non-host architecture drawing from ``"study-synthetic"``,
then the compositing matrix (algorithms x task counts x pixel sizes).  Its
order is pinned by a frozen plan digest in ``tests/test_study_engine.py``.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from operator import attrgetter

from repro.dpp import get_device
from repro.modeling.study import HOST_ARCHITECTURE, StudyConfiguration
from repro.techniques import TECHNIQUES, get_technique
from repro.util.rng import default_rng

__all__ = [
    "ExperimentSpec",
    "SweepPlan",
    "build_plan",
    "require_sampled_ranks",
    "smoke_configuration",
    "full_configuration",
    "spec_from_payload",
    "spec_corpus_key",
    "corpus_spec_keys",
]

#: Spec kinds and the :mod:`repro.study.experiments` function they resolve to.
KIND_RENDER = "render"  # host-measured render (run_experiment)
KIND_SYNTHETIC = "synthetic"  # mapped + cost-model experiment (run_synthetic_experiment)
KIND_COMPOSITING = "compositing"  # Eq. 5.5 compositing row (run_compositing_case)

KINDS = (KIND_RENDER, KIND_SYNTHETIC, KIND_COMPOSITING)


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully-resolved experiment of a sweep.

    A spec carries *everything* its execution needs -- config keys plus the
    handful of :class:`StudyConfiguration` knobs the renderers consume -- so a
    worker process reconstructs nothing from ambient state.  Two specs with
    equal :meth:`key_payload` describe the same experiment and may share a
    cache entry.
    """

    kind: str
    base_seed: int
    architecture: str = ""
    technique: str = ""
    simulation: str = ""
    num_tasks: int = 0
    cells_per_task: int = 0
    image_width: int = 0
    image_height: int = 0
    samples_in_depth: int = 0
    synthetic_samples_in_depth: int = 0
    max_sampled_ranks: int = 0
    algorithm: str = ""
    pixel_size: int = 0
    #: DPP back-end for host renders ("" = the worker's default device);
    #: part of the cache key, so the same configuration rendered on two
    #: back-ends occupies two cache entries.
    dpp_device: str = ""
    #: Compositing specs only: the streaming budget, the streamed rows' scene
    #: family and the explicit radix-k schedule (``()`` factors the task
    #: count) of :class:`StudyConfiguration`; every other kind leaves them unset.
    compositing_max_live_ranks: int = 0
    compositing_scenario: str = ""
    compositing_radices: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown spec kind {self.kind!r}; choose from {KINDS}")

    def key_payload(self) -> dict:
        """The identity of this experiment as a flat, JSON-stable dict.

        Every field participates: the config keys obviously, and the study
        knobs too (``samples_in_depth`` changes the render, ``base_seed``
        changes the noise/sub-image streams), so the content-addressed cache
        can never alias two experiments that would produce different rows.
        Keys come out sorted; the dict is the caller's to mutate.
        """
        return dict(zip(_SPEC_FIELDS, _spec_values(self)))

    @cached_property
    def corpus_key(self) -> tuple:
        """:func:`spec_corpus_key` of this spec, computed once per instance."""
        if self.kind == KIND_COMPOSITING:
            return _compositing_corpus_key(self.algorithm, self.num_tasks, self.pixel_size**2)
        host = self.kind == KIND_RENDER
        return _experiment_corpus_key(
            self.architecture,
            self.technique,
            self.simulation,
            self.num_tasks,
            self.cells_per_task,
            self.image_width,
            self.image_height,
            self.samples_in_depth if host else self.synthetic_samples_in_depth,
            self.dpp_device if host else "",
        )

    def label(self) -> str:
        """Short human-readable identity used in logs and failure rows."""
        if self.kind == KIND_COMPOSITING:
            return f"compositing/{self.algorithm}/t{self.num_tasks}/{self.pixel_size}px"
        device_suffix = f"@{self.dpp_device}" if self.dpp_device else ""
        return (
            f"{self.kind}/{self.architecture}/{self.technique}/{self.simulation}"
            f"/t{self.num_tasks}/c{self.cells_per_task}/{self.image_width}x{self.image_height}"
            f"{device_suffix}"
        )


#: Field names in sorted order, and the matching value getter: a spec is flat
#: (scalars and one tuple of ints), so its payload needs no ``asdict`` deep copy.
_SPEC_FIELDS = tuple(sorted(f.name for f in fields(ExperimentSpec)))
_spec_values = attrgetter(*_SPEC_FIELDS)


@dataclass
class SweepPlan:
    """An ordered list of specs plus the configuration that produced it."""

    config: StudyConfiguration
    specs: list[ExperimentSpec] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.specs)

    def counts(self) -> dict[str, int]:
        """Spec counts by kind (the ``plan`` subcommand's summary)."""
        counts: dict[str, int] = {kind: 0 for kind in KINDS}
        for spec in self.specs:
            counts[spec.kind] += 1
        return counts

    def breakdown(self) -> dict[tuple[str, str, str], int]:
        """Counts by (kind, architecture-or-algorithm, technique)."""
        table: dict[tuple[str, str, str], int] = {}
        for spec in self.specs:
            axis = spec.algorithm if spec.kind == KIND_COMPOSITING else spec.architecture
            key = (spec.kind, axis, spec.technique)
            table[key] = table.get(key, 0) + 1
        return table

    def to_payload(self) -> dict:
        """JSON-serializable form (``plan --out plan.json``)."""
        return {
            "config": asdict(self.config),
            "specs": [spec.key_payload() for spec in self.specs],
        }


def require_sampled_ranks(max_sampled_ranks: int) -> int:
    """``max_sampled_ranks`` of a host render; the one place a value below 1 is rejected."""
    if max_sampled_ranks < 1:
        raise ValueError(f"max_sampled_ranks must be at least 1 for a host render, got {max_sampled_ranks}")
    return max_sampled_ranks


def build_plan(config: StudyConfiguration, include_compositing: bool = True) -> SweepPlan:
    """Expand a study configuration into the explicit experiment matrix.

    This is the one place the matrix is enumerated: the loop nesting *and*
    the RNG stream consumption here define the corpus order.  An unknown
    technique or DPP device, or host renders that would sample no rank, fail
    the plan here, before anything is enumerated or run.
    """
    for technique in config.techniques:
        get_technique(technique)
    for dpp_device in config.dpp_devices:
        get_device(dpp_device)
    if HOST_ARCHITECTURE in config.architectures and config.techniques:
        require_sampled_ranks(config.max_sampled_ranks)
    specs: list[ExperimentSpec] = []
    common = dict(
        base_seed=config.seed,
        samples_in_depth=config.samples_in_depth,
        synthetic_samples_in_depth=config.synthetic_samples_in_depth,
        max_sampled_ranks=config.max_sampled_ranks,
    )

    rng = default_rng(config.seed, "study")
    for technique in config.techniques:
        if HOST_ARCHITECTURE in config.architectures:
            # One stratified draw per technique, shared by every DPP back-end:
            # the device axis compares back-ends on *identical* configurations
            # and leaves the RNG stream exactly where the single-device
            # enumeration leaves it.
            samples = config.stratified_samples(rng)
            for dpp_device in config.dpp_devices:
                for image_size, cells, tasks, simulation in samples:
                    specs.append(
                        ExperimentSpec(
                            kind=KIND_RENDER,
                            architecture=HOST_ARCHITECTURE,
                            technique=technique,
                            simulation=simulation,
                            num_tasks=tasks,
                            cells_per_task=cells,
                            image_width=image_size,
                            image_height=image_size,
                            dpp_device=dpp_device,
                            **common,
                        )
                    )

    synthetic_rng = default_rng(config.seed, "study-synthetic")
    for architecture in config.architectures:
        if architecture == HOST_ARCHITECTURE:
            continue
        for technique in config.techniques:
            for image_size, cells, tasks, simulation in config.stratified_samples(
                synthetic_rng, synthetic=True
            ):
                specs.append(
                    ExperimentSpec(
                        kind=KIND_SYNTHETIC,
                        architecture=architecture,
                        technique=technique,
                        simulation=simulation,
                        num_tasks=tasks,
                        cells_per_task=cells,
                        image_width=image_size,
                        image_height=image_size,
                        **common,
                    )
                )

    if include_compositing:
        for algorithm in config.compositing_algorithms:
            for tasks in config.compositing_task_counts:
                for size in config.compositing_pixel_sizes:
                    specs.append(
                        ExperimentSpec(
                            kind=KIND_COMPOSITING,
                            algorithm=algorithm,
                            num_tasks=tasks,
                            pixel_size=size,
                            compositing_max_live_ranks=config.compositing_max_live_ranks,
                            compositing_scenario=config.compositing_scenario,
                            compositing_radices=tuple(config.compositing_radices or ()),
                            **common,
                        )
                    )

    return SweepPlan(config=config, specs=specs)


def smoke_configuration(seed: int = 2016) -> StudyConfiguration:
    """The CI smoke matrix: 2 simulations x 2 renderer families x 4 ranks.

    Small enough to run (twice -- once cold, once resumed) inside the CI
    budget, but still exercising host renders, synthesized experiments, and
    every compositing algorithm.
    """
    return StudyConfiguration(
        simulations=("kripke", "lulesh"),
        techniques=("raytrace", "volume"),
        task_counts=(4,),
        samples_per_technique=4,
        image_size_range=(48, 80),
        cells_per_task_range=(6, 10),
        samples_in_depth=24,
        compositing_task_counts=(4,),
        compositing_pixel_sizes=(48, 64),
        compositing_algorithms=("direct-send", "binary-swap", "radix-k"),
        seed=seed,
    )


def full_configuration(seed: int = 2016) -> StudyConfiguration:
    """The widest matrix the reproduction renders: every simulation in
    :mod:`repro.simulations`, every technique of the table, all three
    compositing algorithms, both devices, stratified resolution/size pairs
    up to the benchmark's full 192^2 resolution.

    The resolution ceiling was held at the default 160 while the unstructured
    sampler ran at seed speed (a single 192^2 tet render cost ~20 s); the
    fragment-sorted sampler removed that cliff, so ``volume_unstructured``
    rows now sweep the same full-resolution range as every other family.

    The compositing axis extends past the 256-rank dense ceiling: the 1,024-
    and 4,096-rank rows stream through the cohort scheduler (bounded by
    ``compositing_max_live_ranks``) over the AMR nonuniform-decomposition
    scenario, so the Eq. 5.5 corpus covers the thousand-rank regime the paper
    validates at Titan scale.
    """
    return StudyConfiguration(
        techniques=tuple(TECHNIQUES),
        compositing_algorithms=("direct-send", "binary-swap", "radix-k"),
        compositing_task_counts=(2, 4, 8, 16, 32, 64, 256, 1024, 4096),
        compositing_scenario="amr",
        image_size_range=(64, 192),
        seed=seed,
    )


def spec_from_payload(payload: dict, lenient: bool = False) -> ExperimentSpec:
    """Inverse of :meth:`ExperimentSpec.key_payload` (plan files, cache entries).

    Unknown payload keys raise: a key this spec schema does not carry means the
    payload came from a newer (or otherwise diverged) plan/cache schema, and
    silently dropping it would alias two *different* experiments onto one spec.
    Pass ``lenient=True`` to downgrade the mismatch to a :class:`UserWarning`
    (e.g. when deliberately reading a newer plan file for inspection).
    """
    known = set(ExperimentSpec.__dataclass_fields__)
    unknown = sorted(set(payload) - known)
    if unknown:
        message = (
            f"spec payload carries unknown keys {unknown}: plan/cache schema drift "
            "(pass lenient=True to drop them anyway)"
        )
        if not lenient:
            raise ValueError(message)
        warnings.warn(message, UserWarning, stacklevel=2)
    values = {name: value for name, value in payload.items() if name in known}
    if "compositing_radices" in values:  # a JSON round trip turns the tuple into a list
        values["compositing_radices"] = tuple(values["compositing_radices"])
    return ExperimentSpec(**values)


# ---------------------------------------------------------------------------
# Experiment identity across plans and corpora (adaptive dedup)
# ---------------------------------------------------------------------------

def _experiment_corpus_key(
    architecture, technique, simulation, num_tasks, cells, width, height, samples, dpp_device
) -> tuple:
    return (
        "experiment",
        architecture,
        technique,
        simulation,
        int(num_tasks),
        int(cells),
        int(width),
        int(height),
        int(samples),
        dpp_device,
    )


def _compositing_corpus_key(algorithm, num_tasks, pixels) -> tuple:
    return (KIND_COMPOSITING, algorithm, int(num_tasks), int(pixels))


def spec_corpus_key(payload: "ExperimentSpec | dict") -> tuple:
    """The *corpus-level* identity of an experiment, as a hashable tuple.

    Coarser than :meth:`ExperimentSpec.key_payload` on purpose: corpus rows do
    not record ``base_seed`` (two seeds rendering the same configuration
    produce interchangeable rows as far as the fitted models are concerned),
    so adaptive dedup must compare what a *row* can answer -- the observable
    configuration.  Accepts a spec (whose key is computed once and kept on
    the instance) or its payload dict; compositing keys carry total pixels
    (``pixel_size**2``) so they compare against
    :class:`~repro.modeling.study.CompositingRecord.pixels` directly.
    """
    if isinstance(payload, ExperimentSpec):
        return payload.corpus_key
    if payload["kind"] == KIND_COMPOSITING:
        return _compositing_corpus_key(
            payload["algorithm"], payload["num_tasks"], int(payload["pixel_size"]) ** 2
        )
    host = payload["kind"] == KIND_RENDER
    return _experiment_corpus_key(
        payload["architecture"],
        payload["technique"],
        payload["simulation"],
        payload["num_tasks"],
        payload["cells_per_task"],
        payload["image_width"],
        payload["image_height"],
        payload["samples_in_depth" if host else "synthetic_samples_in_depth"],
        payload.get("dpp_device", "") if host else "",
    )


def corpus_spec_keys(corpus) -> set[tuple]:
    """Every experiment identity a corpus already holds (rows *and* failures).

    Failure rows count: a configuration that crashed or timed out was spent
    budget, and re-selecting it every adaptive round would wedge the loop on
    a permanently-broken config.  Rendering rows key by the observable config
    (the record's own ``samples_in_depth``/``dpp_device``), compositing rows
    by (algorithm, tasks, pixels).
    """
    keys: set[tuple] = set()
    for record in corpus.records:
        keys.add(
            _experiment_corpus_key(
                record.architecture,
                record.technique,
                record.simulation,
                record.num_tasks,
                record.cells_per_task,
                record.image_width,
                record.image_height,
                record.samples_in_depth,
                record.dpp_device if record.architecture == HOST_ARCHITECTURE else "",
            )
        )
    for record in corpus.compositing_records:
        keys.add(_compositing_corpus_key(record.algorithm, record.num_tasks, record.pixels))
    for failure in corpus.failures:
        if failure.spec and "kind" in failure.spec:
            keys.add(spec_corpus_key(failure.spec))
    return keys
