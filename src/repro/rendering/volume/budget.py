"""The volume renderers' working-set bound.

Both volume kernels build temporaries proportional to the samples they hold
at once: the structured caster's slab step holds ``lanes x SAMPLE_CHUNK``
samples, the tet caster's span expansion one fragment per (pixel, slot, tet)
candidate and its compositing one row of depth slots per pixel.  Each kernel
runs that work in blocks of at most :data:`SAMPLE_BUDGET` samples, with the
same per-lane arithmetic in the same order, so the block size changes the
size of the temporaries and the number of dpp invocations -- never an image,
an observed feature or a dpp element count.

The kernels read the constant at call time (``budget.SAMPLE_BUDGET``), so a
test can monkeypatch it to force many blocks or one.
"""

from __future__ import annotations

__all__ = ["SAMPLE_BUDGET"]

#: Samples one block of a volume kernel holds at once: about 20 float64
#: temporaries per sample make a block ≈ 10 MB.
SAMPLE_BUDGET = 1 << 16
