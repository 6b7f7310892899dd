"""The study-sweep engine: parallel, cached, resumable experiment execution.

The paper's central artifact is a 1,350-experiment sweep whose slowest-rank
corpus feeds the Table 12/17 model fits and the Table 13 / Figure 11
cross-validation.  This package turns that sweep into a production-style
pipeline:

* :mod:`repro.study.plan` -- declarative matrix expansion of a
  :class:`~repro.modeling.study.StudyConfiguration` into explicit, cacheable
  :class:`~repro.study.plan.ExperimentSpec` rows;
* :mod:`repro.study.experiments` -- the experiment bodies: one function of a
  spec per kind (host render, synthesized experiment, compositing row);
* :mod:`repro.study.executor` -- a process-pool executor with per-experiment
  timeouts, crash/exception isolation (failure rows instead of dead sweeps),
  and deterministic row assembly in plan order;
* :mod:`repro.study.cache` -- a content-addressed, log-structured on-disk row
  cache (config identity + code digest, one appended line per row) that makes
  interrupted sweeps resumable and keeps unchanged configurations from ever
  re-rendering;
* :mod:`repro.study.corpus_io` -- corpus files (atomic save / load) and
  merging; the row schema lives with the rows in :mod:`repro.modeling.study`;
* :mod:`repro.study.adaptive` -- uncertainty-driven sweep planning: fit the
  models, score candidates by prediction-interval width, select the widest
  batch deterministically (with :mod:`repro.study.trajectory` recording the
  error-vs-corpus-size learning curve);
* :mod:`repro.study.cli` -- ``python -m repro.study`` with ``plan
  [--adaptive]`` / ``run [--adaptive] --jobs N --resume`` / ``merge`` /
  ``fit`` subcommands.

:func:`run_study` is the one configuration -> corpus call (plan, execute,
raise on failure rows); the library, the examples and the benchmark suite's
corpus fixtures all go through it, so every table/figure benchmark rides the
same pipeline CI exercises (the Section 5.7 calibration is one such corpus).
The serial oracle is the executor itself at ``jobs=1`` (an in-process loop, no
pool, no cache): a pool run is contractually row-for-row equal to it.
"""

from repro.modeling.study import StudyConfiguration
from repro.study.adaptive import (
    AdaptiveRun,
    AdaptiveSelection,
    run_adaptive_rounds,
    select_batch,
)
from repro.study.cache import CorpusCache, cache_key, code_token
from repro.study.corpus_io import load_corpus, merge_corpora, save_corpus
from repro.study.executor import (
    SpecFailure,
    SweepExecutor,
    SweepOutcome,
    SweepReport,
    execute_spec,
    run_plan,
)
from repro.study.plan import (
    ExperimentSpec,
    SweepPlan,
    build_plan,
    corpus_spec_keys,
    full_configuration,
    smoke_configuration,
    spec_corpus_key,
)

__all__ = [
    "AdaptiveRun",
    "AdaptiveSelection",
    "CorpusCache",
    "ExperimentSpec",
    "SpecFailure",
    "SweepExecutor",
    "SweepOutcome",
    "SweepPlan",
    "SweepReport",
    "build_plan",
    "cache_key",
    "code_token",
    "corpus_spec_keys",
    "execute_spec",
    "full_configuration",
    "load_corpus",
    "merge_corpora",
    "run_adaptive_rounds",
    "run_plan",
    "run_study",
    "save_corpus",
    "select_batch",
    "smoke_configuration",
    "spec_corpus_key",
]


def run_study(config=None, include_compositing: bool = True, jobs: int = 1, cache_dir=None):
    """One-call engine entry point: configuration -> corpus, raising on any failure row.

    The configuration (default :class:`~repro.modeling.study.StudyConfiguration`)
    is expanded by :func:`build_plan` and executed by :func:`run_plan` --
    in-process when ``jobs == 1``, on a process pool otherwise.  ``cache_dir``
    (a path) turns on the content-addressed row cache, with resume, so
    repeated corpus builds -- e.g. across benchmark sessions -- skip every
    unchanged configuration.

    Any failed experiment raises, so a corpus consumed by model fits can never
    silently shrink.  For failure isolation -- the partial corpus plus the
    report -- call :func:`run_plan` on :func:`build_plan`'s plan.
    """
    plan = build_plan(config if config is not None else StudyConfiguration(), include_compositing)
    corpus, _report = run_plan(plan, jobs=jobs, cache=cache_dir)
    if corpus.failures:
        details = "; ".join(
            f"[{f.reason}] {f.kind} {f.error_type}: {f.message}" for f in corpus.failures[:5]
        )
        raise RuntimeError(
            f"{len(corpus.failures)} of {len(plan.specs)} experiments failed "
            f"(run_plan keeps the partial corpus): {details}"
        )
    return corpus
