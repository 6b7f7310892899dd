"""The fitter's known answer: each equation is written once, so synthetic rows have exact coefficients.

The cost model synthesizes phase ``i`` of a group as ``(work_i / rate_i +
overhead) * noise`` from the same term table the design matrix is built from.
A group fit to its summed phases therefore recovers every slope as
``1 / rate`` and the intercept as ``overhead`` times the group's phase count,
both scaled by ``E[noise] = exp(sigma**2 / 2)``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.machines import get_architecture, list_architectures
from repro.machines.archspec import PHASE_RATES
from repro.machines.costmodel import synthesize_render_time
from repro.modeling import RenderingConfiguration, feature_arrays, make_model, map_configuration_to_features
from repro.modeling.models import MODEL_GROUPS, design_matrix
from repro.techniques import TECHNIQUES, ObservedFeatures


def _known_answer(spec, group) -> dict[str, float]:
    """``coefficient -> value`` a noise-free fit of ``group`` recovers on ``spec``."""
    answer = {term.coefficient: 1.0 / getattr(spec, PHASE_RATES[term.phase]) for term in group.terms}
    answer[group.intercept] = spec.kernel_overhead_seconds * len(group.terms)
    return answer


def _fit_synthetic(spec, technique, features, rng):
    """A model fit to synthesized rows: each group's target is its phases summed."""
    model = make_model(technique)
    targets = [np.empty(len(features)) for _ in model.groups]
    for row, observed in enumerate(features):
        phases = synthesize_render_time(spec, technique, observed, rng)
        for target, group in zip(targets, model.groups):
            target[row] = sum(phases[term.phase] for term in group.terms)
    model.fit(feature_arrays(features), *targets)
    return model


def _mapped(technique, tasks, cells, sizes, samples_in_depth):
    return [
        map_configuration_to_features(RenderingConfiguration(technique, "-", t, c, s, s, d))
        for t, c, s, d in zip(tasks, cells, sizes, samples_in_depth, strict=True)
    ]


class TestOneDefinition:
    def test_every_renderer_phase_has_one_rate(self):
        phases = [
            term.phase
            for family, groups in MODEL_GROUPS.items()
            if family != "compositing"
            for group in groups
            for term in group.terms
        ]
        assert sorted(phases) == sorted(PHASE_RATES)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 10**8)),  # objects
                st.integers(0, 10**7),  # active pixels
                st.integers(0, 10**7),  # visible objects
                st.one_of(st.just(0.0), st.floats(0.0, 1e4)),  # pixels per triangle
                st.one_of(st.just(0.0), st.floats(0.0, 1e4)),  # samples per ray
                st.integers(0, 4096),  # cells spanned
                st.floats(0.0, 1e7),  # average active pixels
                st.floats(0.0, 1e8),  # pixels
            ),
            min_size=1,
            max_size=12,
        )
    )
    @example([(0, 5, 0, 0.0, 0.0, 0, 1.0, 2.0), (1, 7, 1, 3.5, 0.0, 1, 0.0, 0.0), (2, 9, 2, 0, 4.0, 2, 3, 4)])
    def test_a_terms_float_work_is_its_design_column_bit_for_bit(self, rows):
        renders = [ObservedFeatures(*row[:6]) for row in rows]
        scalars = [
            {**f.as_dict(), "average_active_pixels": float(row[6]), "pixels": float(row[7])}
            for f, row in zip(renders, rows)
        ]
        columns = {
            **feature_arrays(renders),
            "average_active_pixels": np.array([row[6] for row in rows], dtype=np.float64),
            "pixels": np.array([row[7] for row in rows], dtype=np.float64),
        }
        for groups in MODEL_GROUPS.values():
            for group in groups:
                design = design_matrix(group, columns)
                assert design.shape == (len(rows), len(group.term_names))
                for i, scalar in enumerate(scalars):
                    floats = [*(term.work(scalar) for term in group.terms), 1.0]
                    assert np.array(floats, dtype=np.float64).tobytes() == design[i].tobytes()


class TestKnownAnswer:
    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_a_noise_free_fit_recovers_one_over_rate(self, technique):
        grid = [
            (tasks, cells, size, depth)
            for tasks in (1, 8, 64)
            for cells in (32, 128, 320)
            for size in (512, 1080, 1920, 2880)
            for depth in (500, 1000)
        ]
        features = _mapped(technique, *zip(*grid))
        for name in list_architectures():
            spec = dataclasses.replace(get_architecture(name), noise_sigma=0.0)
            model = _fit_synthetic(spec, technique, features, np.random.default_rng(0))
            for group in model.groups:
                answer = _known_answer(spec, group)
                fitted = model.fits[group.name].named_coefficients()
                assert list(fitted) == list(answer)
                np.testing.assert_allclose(
                    list(fitted.values()), list(answer.values()), rtol=1e-9, atol=0.0, err_msg=name
                )

    @pytest.mark.parametrize("technique", ["raytrace", "raster", "volume"])
    def test_the_noisy_slope_error_shrinks_as_rows_are_added(self, technique):
        """Median relative slope error over five seeds on ``gpu1-k40m``: 1,920 rows beat 30.

        Only slopes are asserted: under this noise the NNLS volume intercept
        is clipped to 0 in the median seed even at 1,920 rows.
        """
        spec = get_architecture("gpu1-k40m")
        expectation = np.exp(spec.noise_sigma**2 / 2.0)
        errors = {30: [], 1920: []}
        for seed in range(5):
            rng = np.random.default_rng(seed)
            count = max(errors)
            features = _mapped(
                technique,
                rng.choice([1, 2, 4, 8, 16, 32, 64], count).tolist(),
                rng.integers(128, 321, count).tolist(),
                rng.integers(512, 2881, count).tolist(),
                rng.choice([500, 1000], count).tolist(),
            )
            for rows in errors:
                model = _fit_synthetic(spec, technique, features[:rows], rng)
                slopes = []
                for group in model.groups:
                    fitted = model.fits[group.name].named_coefficients()
                    answer = _known_answer(spec, group)
                    for term in group.terms:
                        truth = expectation * answer[term.coefficient]
                        slopes.append(abs(fitted[term.coefficient] - truth) / truth)
                errors[rows].append(slopes)
        few, many = np.median(errors[30], axis=0), np.median(errors[1920], axis=0)
        assert np.all(many < few), (few, many)
