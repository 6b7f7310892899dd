"""The study's simulation axis: the analytic field a host render evaluates over its block."""

import numpy as np

__all__ = ["SIMULATION_FIELDS", "get_simulation_field"]


def _lulesh_field(points: np.ndarray) -> np.ndarray:
    """Expanding-shell energy field (Sedov-like)."""
    radius = np.linalg.norm(points - 0.1, axis=1)
    return np.exp(-((radius - 0.55) ** 2) / 0.02) + 0.2 * np.exp(-radius / 0.3)


def _kripke_field(points: np.ndarray) -> np.ndarray:
    """Clustered scalar-flux field."""
    centers = np.array([[0.3, 0.4, 0.5], [0.7, 0.6, 0.4], [0.5, 0.2, 0.7]])
    widths = np.array([0.05, 0.08, 0.04])
    value = np.full(len(points), 0.1)
    for center, width in zip(centers, widths):
        value += np.exp(-np.sum((points - center) ** 2, axis=1) / (2 * width))
    return value


def _cloverleaf_field(points: np.ndarray) -> np.ndarray:
    """Advecting-front density field."""
    return 1.0 / (1.0 + np.exp(-12.0 * (points[:, 0] - 0.4))) + 0.1 * np.sin(
        6.0 * np.pi * points[:, 1]
    ) * np.sin(6.0 * np.pi * points[:, 2])


#: Simulation name -> field of ``(n, 3)`` normalized global coordinates.
SIMULATION_FIELDS = {
    "lulesh": _lulesh_field,
    "kripke": _kripke_field,
    "cloverleaf": _cloverleaf_field,
}


def get_simulation_field(name: str):
    """The field of a simulation name; the one place an unknown name is rejected."""
    try:
        return SIMULATION_FIELDS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        choices = ", ".join(SIMULATION_FIELDS)
        raise ValueError(f"unknown simulation {name!r}; choose from {choices}") from None
