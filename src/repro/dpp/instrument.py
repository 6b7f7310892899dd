"""Primitive-level instrumentation: per-scope operation counters.

The study gathered PAPI counters on the CPU and nvprof metrics on the GPU to
derive per-phase instructions-per-cycle (Table 7) and to populate the
regression corpus with per-phase run times.  The reproduction cannot read
hardware counters, so instead every data-parallel primitive invocation reports

* wall-clock time,
* the number of elements it touched (a proxy for instruction count), and
* an estimate of the bytes it moved (a proxy for memory traffic),

into a process-global :class:`OpCounters` object.  The ratio of elements
touched to bytes moved plays the role of arithmetic intensity / IPC in the
per-phase analyses.

Every invocation is filed under the *active scope*.  A renderer never names
one: :class:`repro.rendering.result.PhaseClock` runs each phase under
``"<family>.<phase>"``, so a volume render records ``volume.sampling``
separately from ``volume.compositing`` just as the paper's harness did.  The
active scope is held in a :class:`contextvars.ContextVar` like the active
device (:mod:`repro.dpp.device`): interleaved asyncio tasks and threads each
file their primitives under their own scope and restore their own previous
scope on exit.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["OpCounters", "get_instrumentation", "reset_instrumentation"]

_ACTIVE_SCOPE: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_dpp_active_scope", default="global"
)


@dataclass
class _PhaseCounters:
    """Raw accumulators for one instrumentation scope."""

    invocations: int = 0
    elements: int = 0
    bytes_moved: int = 0
    seconds: float = 0.0


@dataclass
class OpCounters:
    """Process-global primitive instrumentation; every query is exact per scope."""

    _phases: dict[str, _PhaseCounters] = field(default_factory=dict)

    @contextlib.contextmanager
    def scope(self, name: str) -> Iterator[str]:
        """Make ``name`` the active scope in this context for the enclosed block."""
        token = _ACTIVE_SCOPE.set(name)
        try:
            yield name
        finally:
            _ACTIVE_SCOPE.reset(token)

    def record(self, elements: int, bytes_moved: int, seconds: float) -> None:
        """Record one primitive invocation under the active scope."""
        phase = self._phases.setdefault(_ACTIVE_SCOPE.get(), _PhaseCounters())
        phase.invocations += 1
        phase.elements += int(elements)
        phase.bytes_moved += int(bytes_moved)
        phase.seconds += seconds

    # -- queries ----------------------------------------------------------------
    def _counters(self, scope: str) -> _PhaseCounters:
        return self._phases.get(scope) or _PhaseCounters()

    def elements(self, scope: str) -> int:
        """Total elements touched by primitives in ``scope``."""
        return self._counters(scope).elements

    def bytes_moved(self, scope: str) -> int:
        """Total estimated bytes moved by primitives in ``scope``."""
        return self._counters(scope).bytes_moved

    def invocations(self, scope: str) -> int:
        """Number of primitive invocations recorded in ``scope``."""
        return self._counters(scope).invocations

    def seconds(self, scope: str) -> float:
        """Wall-clock seconds recorded by primitives in ``scope``."""
        return self._counters(scope).seconds

    def arithmetic_intensity(self, scope: str) -> float:
        """Elements touched per byte moved -- the reproduction's IPC proxy."""
        moved = self.bytes_moved(scope)
        if moved == 0:
            return 0.0
        return self.elements(scope) / moved

    def scopes(self) -> list[str]:
        """All scopes with recorded activity."""
        return sorted(self._phases)

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Per-scope dictionary of counters (for reports and tests)."""
        return {
            scope: {name: float(value) for name, value in vars(phase).items()}
            for scope, phase in self._phases.items()
        }

    def clear(self) -> None:
        """Forget all counters."""
        self._phases.clear()


#: Module-level singleton used by :mod:`repro.dpp.primitives`.
_INSTRUMENTATION = OpCounters()


def get_instrumentation() -> OpCounters:
    """Return the process-global instrumentation object."""
    return _INSTRUMENTATION


def reset_instrumentation() -> None:
    """Clear the process-global instrumentation (used by tests and the harness)."""
    _INSTRUMENTATION.clear()
