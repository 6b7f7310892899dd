"""Session-scoped fixtures shared by every benchmark.

The model-side artifacts (Tables 12-17, Figures 11-15:
``bench_model_artifacts.py``) all read the study corpus and its fitted suite;
building the corpus involves dozens of real renders, so it is built once per
pytest session and reused.  Table 15 reads a calibration corpus of its own.

The corpus is built by the sweep engine (:func:`repro.study.run_study`), the
same pipeline ``python -m repro.study run`` and the CI ``sweep-smoke`` job
drive.  Two environment variables tune it without touching the benchmarks:

* ``REPRO_STUDY_JOBS``   -- process-pool width (default 1: in-process)
* ``REPRO_STUDY_CACHE``  -- corpus cache directory; with it set, repeated
  benchmark sessions skip every unchanged configuration (the cache key
  includes a digest of the package source, so code changes invalidate it
  automatically).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from repro.modeling.study import StudyConfiguration
from repro.study import run_study


@pytest.fixture(scope="session")
def study_corpus():
    """The default study corpus (host-measured + synthesized GPU experiments)."""
    config = StudyConfiguration(samples_per_technique=10, seed=2016)
    return run_study(
        config,
        jobs=int(os.environ.get("REPRO_STUDY_JOBS", "1")),
        cache_dir=os.environ.get("REPRO_STUDY_CACHE") or None,
    )


@pytest.fixture(scope="session")
def model_suite(study_corpus):
    """The fitted-model registry (suite) over the default corpus.

    The artifact benchmarks call the ``report`` CLI's emitters on the same
    :class:`~repro.reporting.suite.ModelSuite` it fits, so a registry
    regression shows up here too.
    """
    from repro.reporting import ModelSuite

    return ModelSuite.fit_corpus(study_corpus)


@pytest.fixture(scope="session")
def calibration_corpus():
    """Table 15's corpus: the Section 5.7 small-sample calibration on the Titan stand-in.

    Ten synthesized CloverLeaf3D experiments per technique on
    ``gpu2-titan-k20`` alone (the paper ran 20-31 on Titan), no compositing.
    """
    config = StudyConfiguration(
        architectures=("gpu2-titan-k20",),
        simulations=("cloverleaf",),
        samples_per_technique=10,
        seed=41,
    )
    return run_study(config, include_compositing=False)


@pytest.fixture(scope="session")
def calibration_suite(calibration_corpus):
    """The suite fitted on :func:`calibration_corpus`."""
    from repro.reporting import ModelSuite

    return ModelSuite.fit_corpus(calibration_corpus)
