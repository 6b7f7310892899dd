"""The whole-call stopwatch.

:class:`Timer` times one call from outside -- a compositing run, a simulation
step, a cached acceleration-structure build.  A *render phase* is not timed
with it: phases go through :class:`repro.rendering.result.PhaseClock`, which
also names the phase's dpp scope and keeps nested phases from being counted
twice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

__all__ = ["Timer"]


@dataclass
class Timer:
    """Context-manager stopwatch.

    Examples
    --------
    >>> with Timer() as t:
    ...     _ = sum(range(10))
    >>> t.elapsed >= 0.0
    True
    """

    elapsed: float = 0.0
    _start: float | None = None

    def __enter__(self) -> "Timer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def start(self) -> None:
        """Begin (or restart) timing."""
        self._start = time.perf_counter()

    def stop(self) -> float:
        """Stop timing, accumulate into :attr:`elapsed`, and return it."""
        if self._start is None:
            raise RuntimeError("Timer.stop() called before start()")
        self.elapsed += time.perf_counter() - self._start
        self._start = None
        return self.elapsed
