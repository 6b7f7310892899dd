"""The least-squares fitter: the in-tree NNLS against scipy's, and its input checks.

``scipy.optimize.nnls`` is the oracle here and nowhere else: ``src/`` does not
import scipy, and a process with scipy blocked fits, reports and runs the
``fit`` CLI.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls as scipy_nnls

from repro.modeling.models import MODEL_GROUPS, design_matrix
from repro.modeling.regression import _nnls, fit_linear_model
from repro.modeling.study import StudyConfiguration
from repro.study import run_study
from repro.study.corpus_io import save_corpus


def _scaled(design):
    scale = np.linalg.norm(design, axis=0)
    scale[scale == 0.0] = 1.0
    return design / scale, scale


def _scipy_coefficients(design, response):
    """The fit ``fit_linear_model(..., nonnegative=True)`` made with scipy: the same column scaling."""
    scaled, scale = _scaled(design)
    return scipy_nnls(scaled, response)[0] / scale


def _assert_optimal(design, response, coefficients):
    """Feasible, no worse than scipy's residual, and KKT on the zero coordinates."""
    assert (coefficients >= 0.0).all()
    norm = np.linalg.norm(response)
    residual = np.linalg.norm(design @ coefficients - response)
    oracle = np.linalg.norm(design @ _scipy_coefficients(design, response) - response)
    assert residual <= oracle * (1.0 + 1e-10) + 1e-14 * norm
    # The gradient of 0.5 * ||A x - b||^2 at a zero coordinate must not point
    # into the feasible region (column-scaled, so every column counts alike).
    scaled, _ = _scaled(design)
    gradient = scaled.T @ (response - design @ coefficients)
    assert (gradient[coefficients == 0.0] <= 1e-9 * norm).all()


@st.composite
def nnls_problems(draw):
    """``(design, response)``: n from p to 60, p from 1 to 5, columns scaled 1e-3..1e6 plus
    a ones column, sometimes a degenerate column, truths of any sign."""
    p = draw(st.integers(1, 5))
    n = draw(st.integers(p, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exponents = [draw(st.floats(-3.0, 6.0)) for _ in range(p)]
    design = rng.uniform(0.0, 1.0, (n, p)) * np.power(10.0, exponents)
    if draw(st.booleans()):
        design[:, -1] = 1.0
    degenerate = draw(st.sampled_from(["none", "collinear", "duplicate", "zero"]))
    if p > 1 and degenerate == "collinear":
        design[:, 0] = design[:, -1] * draw(st.floats(1e-3, 1e3))
    elif p > 1 and degenerate == "duplicate":
        design[:, 0] = design[:, -1]
    elif degenerate == "zero":
        design[:, draw(st.integers(0, p - 1))] = 0.0
    signs = draw(st.sampled_from(["mixed", "negative", "positive"]))
    truth = rng.uniform(0.1, 1.0, p) / np.maximum(np.abs(design).max(axis=0), 1e-300)
    if signs == "mixed":
        truth *= rng.choice([-1.0, 1.0], p)
    elif signs == "negative":
        truth = -truth
    response = design @ truth + draw(st.sampled_from([0.0, 1e-3, 0.1])) * rng.standard_normal(n)
    return design, response


def _raytrace_crossval_design(rng, n):
    """The p = 5 design raytrace cross validation fits: both groups' terms, two ones columns."""
    columns = {
        "objects": rng.integers(1_000, 2_000_000, n).astype(np.float64),
        "active_pixels": rng.integers(100, 2_000_000, n).astype(np.float64),
    }
    return np.concatenate([design_matrix(group, columns) for group in MODEL_GROUPS["raytrace"]], axis=1)


class TestNNLS:
    @settings(max_examples=300, deadline=None)
    @given(nnls_problems())
    def test_matches_scipy_on_random_problems(self, problem):
        design, response = problem
        _assert_optimal(design, response, fit_linear_model(design, response, nonnegative=True).coefficients)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(5, 60), st.sampled_from([0.0, 1e-3, 0.1]))
    def test_matches_scipy_on_the_raytrace_crossval_design(self, seed, n, noise):
        rng = np.random.default_rng(seed)
        design = _raytrace_crossval_design(rng, n)
        truth = np.array([2e-8, 1e-3, 3e-9, 1e-8, 5e-3]) * rng.uniform(0.5, 2.0, 5) * rng.choice([-1.0, 1.0], 5)
        response = design @ truth + noise * rng.standard_normal(n)
        coefficients = fit_linear_model(design, response, nonnegative=True).coefficients
        _assert_optimal(design, response, coefficients)
        scaled, _ = _scaled(design)
        if (np.linalg.lstsq(scaled, response, rcond=None)[0] < 0.0).any():
            # On the active-set path the same columns stay at zero as with
            # scipy: of the two ones columns, the first one enters.
            oracle = _scipy_coefficients(design, response)
            assert (coefficients == 0.0).tolist() == (oracle == 0.0).tolist()

    def test_textbook_examples(self):
        design = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(_nnls(design, np.array([2.0, 1.0, 1.0])), [1.5, 1.0])
        assert _nnls(design, np.array([-1.0, -1.0, -1.0])).tolist() == [0.0, 0.0]

    def test_an_unconstrained_nonnegative_solution_is_returned_as_is(self):
        rng = np.random.default_rng(7)
        design = rng.uniform(0.0, 1.0, (20, 3))
        response = design @ np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(
            _nnls(design, response), np.linalg.lstsq(design, response, rcond=None)[0]
        )

    def test_an_identical_column_stays_at_zero_on_the_active_set_path(self):
        # The two intercepts of the raytrace cross-validation design: the first
        # one enters, as in scipy, and its twin stays at exactly zero.
        rng = np.random.default_rng(11)
        work = rng.uniform(0.0, 1.0, 30)
        design = np.column_stack([work, np.ones(30), -work, np.ones(30)])
        response = 2.0 * work + 0.5 + 0.01 * rng.standard_normal(30)
        scaled, _ = _scaled(design)
        ours, theirs = _nnls(scaled, response), scipy_nnls(scaled, response)[0]
        assert (ours == 0.0).tolist() == (theirs == 0.0).tolist() == [False, False, True, True]
        np.testing.assert_allclose(ours, theirs, rtol=1e-12)


class TestNonFiniteInput:
    @pytest.mark.parametrize("nonnegative", [False, True])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["design", "response"])
    def test_is_one_clear_error_on_both_paths(self, nonnegative, value, where, capfd):
        rng = np.random.default_rng(3)
        design = np.column_stack([rng.uniform(1.0, 2.0, 10), np.ones(10)])
        response = design @ np.array([0.5, 0.1])
        (design if where == "design" else response)[4] = value
        with pytest.raises(ValueError, match="must be finite"):
            fit_linear_model(design, response, nonnegative=nonnegative)
        assert capfd.readouterr().err == ""  # no LAPACK complaint on the way


_NO_SCIPY = """
import json, runpy, sys
sys.path[:] = json.loads(sys.argv[1])
sys.modules["scipy"] = None  # importing scipy now raises ImportError
from repro.reporting import ModelSuite, generate_report
from repro.study.corpus_io import load_corpus
corpus = load_corpus(sys.argv[2])
suite = ModelSuite.fit_corpus(corpus)
assert suite.entries and not suite.failures, suite.failures
generate_report(corpus, sys.argv[3])
sys.argv = ["repro.study", "fit", sys.argv[2]]
runpy.run_module("repro.study", run_name="__main__")
"""


def test_fit_report_and_fit_cli_run_with_scipy_blocked(tmp_path):
    config = StudyConfiguration(
        architectures=("gpu1-k40m",),
        techniques=("raytrace", "raster", "volume"),
        simulations=("kripke",),
        task_counts=(1, 4),
        samples_per_technique=8,
        compositing_task_counts=(2, 4),
        compositing_pixel_sizes=(32, 48, 64),
        seed=37,
    )
    corpus_path = save_corpus(run_study(config), tmp_path / "corpus.json")
    child = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, json.dumps(sys.path), str(corpus_path), str(tmp_path / "report")],
        capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert (tmp_path / "report" / "models.json").is_file()
    assert "raytrace" in child.stdout
