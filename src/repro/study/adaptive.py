"""Uncertainty-driven sweep planning: spend the render budget where models are weakest.

The static presets treat every configuration as equally informative; this
module ranks *candidate* experiments by how much the fitted models do not yet
know about them, following the variable-selection discipline of the LARS
discussions (greedily add the inputs that most reduce model uncertainty) --
applied to experiment selection rather than regression terms.

One adaptive step is::

    corpus --fit--> ModelSuite --score--> interval widths --select--> top-K batch

* **Candidates** come from :func:`~repro.study.plan.build_plan` on the same
  study configuration, re-expanded at ``expand``x the stratified sampling
  density with an RNG seed derived from the corpus digest -- so the candidate
  continuum is fresh per corpus state yet exactly reproducible from it.
* **Scores** are prediction-interval widths from
  :meth:`repro.reporting.predictor.Predictor.interval_widths_for_specs`
  (quadrature-combined build+frame residuals for ray tracing) at the
  serving default half-width, ``DEFAULT_INTERVAL_SIGMAS``.  A candidate
  whose ``(architecture, technique)`` slice has no fitted model scores
  ``inf``: an unfit slice is maximal uncertainty and ranks first.
* **Selection** is the widest ``batch_size`` candidates, ties broken by the
  candidate's corpus key.  Everything is a pure function of ``(corpus digest,
  candidate configuration, seed)``: same inputs, byte-identical batch -- so
  adaptive batches cache and resume like every other plan in the engine.

:func:`run_adaptive_rounds` chains fit -> select -> render -> refit rounds,
holding the candidate pool fixed across rounds of one run (executed specs
leave the pool, and dedup against the grown corpus backstops that), and
records one learning-curve row per round via :mod:`repro.study.trajectory`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace

from repro.modeling.study import StudyConfiguration, StudyCorpus, corpus_digest
from repro.reporting.predictor import DEFAULT_INTERVAL_SIGMAS, Predictor
from repro.reporting.suite import ModelSuite
from repro.study.corpus_io import merge_corpora
from repro.study.executor import run_plan
from repro.study.plan import (
    ExperimentSpec,
    SweepPlan,
    build_plan,
    corpus_spec_keys,
    spec_corpus_key,
)
from repro.study.trajectory import trajectory_row

__all__ = [
    "ADAPTIVE_SCHEMA_VERSION",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_EXPAND",
    "ScoredCandidate",
    "AdaptiveSelection",
    "AdaptiveRound",
    "AdaptiveRun",
    "selection_token",
    "candidate_plan",
    "score_candidates",
    "select_batch",
    "run_adaptive_rounds",
]

#: Version guard of the adaptive batch payload (and the selection token).
ADAPTIVE_SCHEMA_VERSION = 1

#: Default experiments per adaptive batch.
DEFAULT_BATCH_SIZE = 8

#: Default candidate-density multiplier over the configuration's
#: ``samples_per_technique`` -- the candidate matrix is ``expand``x the static
#: plan, so selection always has strictly more to choose from than one sweep.
DEFAULT_EXPAND = 4


def selection_token(digest: str, config: StudyConfiguration, seed: int) -> str:
    """The determinism anchor: sha256 over (corpus digest, config, seed).

    Everything stochastic about one adaptive step -- the candidate matrix's
    stratified jitter -- is derived from this token, which makes selection a
    pure function of its three inputs: re-invoking with the same corpus file
    and flags reproduces the batch byte for byte, while a grown corpus (new
    digest) draws a fresh candidate continuum.
    """
    canonical = json.dumps(asdict(config), sort_keys=True, separators=(",", ":"))
    material = f"{ADAPTIVE_SCHEMA_VERSION}\x1f{digest}\x1f{canonical}\x1f{seed}"
    return hashlib.sha256(material.encode()).hexdigest()


def candidate_plan(
    config: StudyConfiguration,
    token: str,
    expand: int = DEFAULT_EXPAND,
    include_compositing: bool = True,
) -> SweepPlan:
    """The candidate matrix: the configuration re-expanded at ``expand``x density.

    The stratified (image size, data size) draws use a seed derived from the
    selection token, so candidates differ from the static sweep's draws (and
    from any other corpus state's candidates) but are exactly reproducible.
    The compositing matrix is discrete (algorithms x tasks x sizes) and does
    not densify: compositing candidates only survive dedup while the corpus
    has not covered that matrix yet.
    """
    if expand < 1:
        raise ValueError("expand must be at least 1")
    candidate_config = replace(
        config,
        seed=int(token[:12], 16),
        samples_per_technique=config.samples_per_technique * expand,
    )
    return build_plan(candidate_config, include_compositing=include_compositing)


@dataclass(frozen=True)
class ScoredCandidate:
    """One candidate experiment plus its uncertainty score."""

    spec: ExperimentSpec
    width: float  #: interval width; ``inf`` = no fitted model for the slice
    slice: str  #: ``architecture/technique`` (``-/compositing`` for Eq. 5.5)

    @property
    def known(self) -> bool:
        return math.isfinite(self.width)

    def to_payload(self) -> dict:
        """JSON-safe form (``inf`` widths become ``None`` + ``known: false``)."""
        return {
            "spec": self.spec.key_payload(),
            "slice": self.slice,
            "known": self.known,
            "width": float(self.width) if self.known else None,
        }


def score_candidates(specs: list[ExperimentSpec], suite) -> list[ScoredCandidate]:
    """Score candidates by interval width and sort widest-first.

    Unknown-model slices (``inf``) rank before every fitted slice; ties (all
    specs of one slice share its residual band unless the zero clip bites)
    break on the candidate's corpus key, so the order -- and therefore the
    selected batch -- is deterministic.
    """
    predictor = suite if isinstance(suite, Predictor) else Predictor(suite)
    widths = predictor.interval_widths_for_specs([spec.key_payload() for spec in specs])
    scored = []
    for spec, width in zip(specs, widths):
        if spec.kind == "compositing":
            slice_name = "-/compositing"
        else:
            slice_name = f"{spec.architecture}/{spec.technique}"
        scored.append(ScoredCandidate(spec=spec, width=float(width), slice=slice_name))
    return sorted(scored, key=lambda c: (-c.width, spec_corpus_key(c.spec)))


@dataclass
class AdaptiveSelection:
    """One deterministic fit -> score -> select step, ready to execute or serialize."""

    config: StudyConfiguration
    corpus_digest: str
    seed: int
    expand: int
    batch_size: int
    candidates: list[ScoredCandidate] = field(default_factory=list)
    selected: list[ScoredCandidate] = field(default_factory=list)
    deduplicated: int = 0  #: candidate-matrix specs dropped as already-in-corpus

    def unknown_candidates(self) -> int:
        return sum(1 for candidate in self.candidates if not candidate.known)

    def mean_interval_width(self) -> float | None:
        """Mean width over the fitted (finite-width) candidates; ``None`` if none."""
        finite = [candidate.width for candidate in self.candidates if candidate.known]
        if not finite:
            return None
        return float(sum(finite) / len(finite))

    def max_interval_width(self) -> float | None:
        finite = [candidate.width for candidate in self.candidates if candidate.known]
        return max(finite) if finite else None

    def plan(self) -> SweepPlan:
        """The selected batch as a :class:`SweepPlan` (feeds ``run_plan`` unchanged)."""
        return SweepPlan(config=self.config, specs=[candidate.spec for candidate in self.selected])

    def to_payload(self) -> dict:
        """The adaptive batch artifact (``plan --adaptive --out``), byte-stable."""
        return {
            "schema": ADAPTIVE_SCHEMA_VERSION,
            "corpus_digest": self.corpus_digest,
            "seed": self.seed,
            "expand": self.expand,
            "batch_size": self.batch_size,
            "sigmas": DEFAULT_INTERVAL_SIGMAS,
            "candidates": len(self.candidates),
            "deduplicated": self.deduplicated,
            "unknown_candidates": self.unknown_candidates(),
            "mean_interval_width": self.mean_interval_width(),
            "config": asdict(self.config),
            "selected": [candidate.to_payload() for candidate in self.selected],
        }


def select_batch(
    corpus: StudyCorpus,
    config: StudyConfiguration,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int = 2016,
    expand: int = DEFAULT_EXPAND,
    suite=None,
    candidates: list[ExperimentSpec] | None = None,
    include_compositing: bool = True,
) -> AdaptiveSelection:
    """One adaptive step: fit on the corpus, score candidates, take the widest K.

    ``suite`` short-circuits the fit (multi-round drivers refit once per
    round); ``candidates`` short-circuits the expansion (multi-round drivers
    hold one pool fixed and let executed specs fall out).  Either way the
    candidate list is deduplicated against every experiment identity the
    corpus already holds -- rows *and* failure rows -- so a selected spec's
    key can never already exist in the corpus.
    """
    if batch_size < 0:
        raise ValueError("batch_size must be non-negative")
    digest = corpus_digest(corpus)
    if candidates is None:
        token = selection_token(digest, config, seed)
        pool = candidate_plan(config, token, expand, include_compositing).specs
    else:
        pool = candidates
    existing = corpus_spec_keys(corpus)
    seen: set[tuple] = set()
    fresh: list[ExperimentSpec] = []
    for spec in pool:
        key = spec_corpus_key(spec)
        if key in existing or key in seen:
            continue
        seen.add(key)
        fresh.append(spec)
    if suite is None:
        suite = ModelSuite.fit_corpus(corpus, seed=seed)
    scored = score_candidates(fresh, suite)
    return AdaptiveSelection(
        config=config,
        corpus_digest=digest,
        seed=seed,
        expand=expand,
        batch_size=batch_size,
        candidates=scored,
        selected=scored[:batch_size],
        deduplicated=len(pool) - len(fresh),
    )


@dataclass
class AdaptiveRound:
    """What one fit -> select -> render round did."""

    selection: AdaptiveSelection
    report: object | None = None  #: :class:`~repro.study.executor.SweepReport`
    trajectory_row: dict = field(default_factory=dict)


@dataclass
class AdaptiveRun:
    """The outcome of :func:`run_adaptive_rounds`."""

    corpus: StudyCorpus  #: the base corpus grown by every executed batch
    rounds: list[AdaptiveRound] = field(default_factory=list)
    final_row: dict = field(default_factory=dict)

    def trajectory_rows(self) -> list[dict]:
        rows = [round_.trajectory_row for round_ in self.rounds]
        if self.final_row:
            rows.append(self.final_row)
        return rows

    @property
    def executed(self) -> int:
        return sum(r.report.executed for r in self.rounds if r.report is not None)

    @property
    def failures(self) -> int:
        return sum(r.report.failed for r in self.rounds if r.report is not None)


def run_adaptive_rounds(
    corpus: StudyCorpus,
    config: StudyConfiguration,
    rounds: int = 2,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int = 2016,
    expand: int = DEFAULT_EXPAND,
    jobs: int = 1,
    timeout: float | None = None,
    cache=None,
    resume: bool = True,
    include_compositing: bool = True,
) -> AdaptiveRun:
    """Chain ``rounds`` fit -> select -> render -> refit steps over one candidate pool.

    The pool is expanded once, from the *initial* corpus digest: each round
    refits the suite on the grown corpus, rescores what remains of the pool,
    records a learning-curve row, executes the widest ``batch_size``
    candidates, and removes them from the pool (dedup against the grown
    corpus backstops the removal, so a later round can never re-select an
    earlier round's specs -- succeeded or failed).  A final fit/score pass
    records the post-run trajectory row.  Holding the pool fixed is what
    makes the recorded mean interval width meaningful round over round: the
    widest candidates leave the pool, so the curve tracks uncertainty
    actually retired, not resampled.
    """
    token = selection_token(corpus_digest(corpus), config, seed)
    pool = candidate_plan(config, token, expand, include_compositing).specs
    run = AdaptiveRun(corpus=corpus)
    for round_index in range(rounds):
        suite = ModelSuite.fit_corpus(corpus, seed=seed)
        selection = select_batch(
            corpus,
            config,
            batch_size=batch_size,
            seed=seed,
            expand=expand,
            suite=suite,
            candidates=pool,
        )
        row = trajectory_row(corpus, suite, selection, round_index=round_index)
        if not selection.selected:
            run.rounds.append(AdaptiveRound(selection=selection, trajectory_row=row))
            break
        batch_corpus, report = run_plan(
            selection.plan(), jobs=jobs, timeout=timeout, cache=cache, resume=resume
        )
        corpus = merge_corpora([corpus, batch_corpus])
        executed = {spec_corpus_key(candidate.spec) for candidate in selection.selected}
        pool = [spec for spec in pool if spec_corpus_key(spec) not in executed]
        run.rounds.append(AdaptiveRound(selection=selection, report=report, trajectory_row=row))
    suite = ModelSuite.fit_corpus(corpus, seed=seed)
    final_selection = select_batch(
        corpus,
        config,
        batch_size=0,
        seed=seed,
        expand=expand,
        suite=suite,
        candidates=pool,
    )
    run.final_row = trajectory_row(corpus, suite, final_selection, round_index=len(run.rounds))
    run.corpus = corpus
    return run
