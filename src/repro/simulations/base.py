"""Common interface of the proxy simulation applications."""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.geometry.mesh import Mesh
from repro.util.timing import Timer

__all__ = ["SimulationProxy"]


class SimulationProxy(ABC):
    """A batch simulation stepped one cycle at a time.

    Subclasses implement :meth:`_step` (the physics) and :meth:`mesh`
    (exposing the current state).  :meth:`advance` wraps the step with timing
    so the in situ burden experiments (Table 11) can compare simulation time
    per cycle with visualization time per cycle.
    """

    def __init__(self) -> None:
        self.cycle = 0
        self.time = 0.0
        self.last_step_seconds = 0.0
        self.total_step_seconds = 0.0

    # -- stepping ---------------------------------------------------------------
    def advance(self, cycles: int = 1) -> float:
        """Advance the simulation; returns seconds spent in the physics."""
        if cycles < 1:
            raise ValueError("cycles must be positive")
        elapsed = 0.0
        for _ in range(cycles):
            with Timer() as timer:
                dt = self._step()
            self.cycle += 1
            self.time += dt
            self.last_step_seconds = timer.elapsed
            self.total_step_seconds += timer.elapsed
            elapsed += timer.elapsed
        return elapsed

    @abstractmethod
    def _step(self) -> float:
        """Advance one cycle of physics; returns the simulated time increment."""

    # -- state access ---------------------------------------------------------------
    @abstractmethod
    def mesh(self) -> Mesh:
        """The simulation's current mesh with its fields attached."""

    @property
    @abstractmethod
    def primary_field(self) -> str:
        """Name of the field a default visualization should render."""

    @property
    def name(self) -> str:
        """Short proxy name (class name without the ``Proxy`` suffix)."""
        return type(self).__name__.replace("Proxy", "").lower()
