"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import Camera, isosurface_marching_tets, make_named_dataset, tetrahedralize_uniform_grid
from repro.rendering.scene import Scene
from repro.study.plan import ExperimentSpec


@pytest.fixture(scope="session")
def small_grid():
    """A small uniform grid with a Richtmyer-Meshkov-like density field."""
    return make_named_dataset("rm", (13, 13, 13), seed=11)


@pytest.fixture(scope="session")
def blob_grid():
    """A small uniform grid with an Enzo-like clustered density field."""
    return make_named_dataset("enzo", (13, 13, 13), seed=13)


@pytest.fixture(scope="session")
def small_surface(small_grid):
    """Isosurface triangles extracted from the small grid."""
    surface = isosurface_marching_tets(small_grid, "density", 0.5)
    assert surface.num_triangles > 0
    return surface


@pytest.fixture(scope="session")
def small_scene(small_surface):
    """A renderable scene over the small isosurface."""
    return Scene(small_surface)


@pytest.fixture(scope="session")
def small_camera(small_surface):
    """A 48x48 camera framing the small isosurface."""
    return Camera.framing_bounds(small_surface.bounds, 48, 48)


@pytest.fixture(scope="session")
def small_tets(blob_grid):
    """Tetrahedralization of the blob grid (for unstructured volume rendering)."""
    return tetrahedralize_uniform_grid(blob_grid)


@pytest.fixture
def rng():
    """Deterministic RNG for per-test randomness."""
    return np.random.default_rng(1234)


def _spec_from_payload(payload: dict) -> ExperimentSpec:
    """Inverse of :meth:`ExperimentSpec.key_payload`, the payload plan files and cache keys carry.

    Unknown payload keys raise: a key this spec schema does not carry means the
    payload came from a newer (or otherwise diverged) plan/cache schema, and
    silently dropping it would alias two *different* experiments onto one spec.
    """
    unknown = sorted(set(payload) - set(ExperimentSpec.__dataclass_fields__))
    if unknown:
        raise ValueError(f"spec payload carries unknown keys {unknown}: plan/cache schema drift")
    values = dict(payload)
    if "compositing_radices" in values:  # a JSON round trip turns the tuple into a list
        values["compositing_radices"] = tuple(values["compositing_radices"])
    return ExperimentSpec(**values)


@pytest.fixture(scope="session")
def spec_from_payload():
    """The ``key_payload`` round-trip oracle: payload dict -> :class:`ExperimentSpec`."""
    return _spec_from_payload
