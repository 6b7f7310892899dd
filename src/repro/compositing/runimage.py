"""Run-length sub-images: the compacted SoA representation of the fast compositing path.

A sort-last rank's contribution to the final image is usually sparse -- the
paper's framing camera fills about 55% of the pixels on one task and the
footprint shrinks with the cube root of the task count -- yet the dense
:class:`~repro.compositing.image.SubImage` carries (and exchanges) every
pixel.  :class:`RunImage` stores only the *active* pixels, structure-of-arrays:

* ``pixels`` -- strictly ascending flat pixel ids of the active pixels;
* ``rgba`` / ``depth`` -- the SoA payload, in pixel order;
* ``key`` -- the image's integer visibility-order key (its rank position in
  the front-to-back ordering for ``"over"`` compositing, the source rank
  index for ``"depth"``);
* contiguous runs of ``pixels`` are the *wire* representation: simulated
  exchanges charge the network for IceT-style run-length-encoded pieces
  (16-byte run header + SoA payload; see :func:`wire_bytes_table`), which is
  what makes the exchanged byte counts shrink with the active-pixel
  footprint.

Activity is mode-dependent, following the depth convention enforced by
:class:`repro.rendering.result.RenderResult` (covered pixel ⇔ alpha > 0 ⇔
finite depth):

* ``"depth"`` (z-buffer) compositing: a pixel contributes iff its depth is
  finite;
* ``"over"`` (alpha) compositing: a pixel contributes iff its alpha is
  positive (per-pixel depth is replaced by the constant visibility key).

Construction from a framebuffer is the stream-compaction idiom executed
directly: reverse-index the active mask, gather the survivors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rendering.framebuffer import Framebuffer

__all__ = [
    "RunImage",
    "active_mask",
    "expand_runs",
    "run_image_from_framebuffer",
    "wire_bytes_table",
]


def expand_runs(offsets: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ascending pixel ids of the contiguous runs ``(offsets, lengths)``."""
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.repeat(offsets, lengths)
    first = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return starts + (np.arange(total, dtype=np.int64) - first)


def active_mask(rgba: np.ndarray, depth: np.ndarray, mode: str) -> np.ndarray:
    """Which pixels carry a contribution, per compositing mode (see module doc)."""
    if mode == "depth":
        return np.isfinite(np.asarray(depth).reshape(-1))
    if mode == "over":
        return np.asarray(rgba).reshape(-1, 4)[:, 3] > 0.0
    raise ValueError(f"unknown compositing mode {mode!r}")


@dataclass
class RunImage:
    """One rank's contribution as compacted active pixels (SoA payload)."""

    width: int
    height: int
    pixels: np.ndarray
    rgba: np.ndarray
    depth: np.ndarray
    key: int = 0

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels, dtype=np.int64)
        self.rgba = np.asarray(self.rgba, dtype=np.float64)
        self.depth = np.asarray(self.depth, dtype=np.float64)
        total = len(self.pixels)
        if self.rgba.shape != (total, 4):
            raise ValueError(f"rgba must have shape ({total}, 4) to match the active pixels")
        if self.depth.shape != (total,):
            raise ValueError(f"depth must have shape ({total},) to match the active pixels")

    # -- shape ----------------------------------------------------------------------
    @property
    def num_pixels(self) -> int:
        return self.width * self.height

    @property
    def active_pixels(self) -> int:
        """Pixels carrying a contribution -- the per-rank ``AP`` of Eq. 5.5."""
        return len(self.pixels)

    # -- construction ---------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        pixels: np.ndarray,
        rgba: np.ndarray,
        depth: np.ndarray,
        width: int,
        height: int,
        key: int = 0,
    ) -> "RunImage":
        """Build from ascending active pixel ids plus their SoA payload."""
        return cls(width, height, pixels, rgba, depth, key=key)


def wire_bytes_table(pixels: np.ndarray, bounds: np.ndarray, with_depth: bool) -> np.ndarray:
    """Simulated wire size of the payload slices ``[bounds[..., i], bounds[..., i+1])``.

    The wire layout is IceT-style compressed sub-images: a 16-byte
    ``(offset, length)`` header per contiguous run, 32 bytes of
    straight-alpha RGBA per active pixel, 8 more bytes per pixel for the
    depth plane in ``"depth"`` mode (``"over"`` sends the scalar visibility
    key instead), plus a 64-byte message header; an empty slice costs the
    header alone.

    ``pixels`` is any ascending stream -- one image, or a whole exchange
    round's members offset into disjoint pixel bands -- and ``bounds`` holds
    payload positions, one row of ascending cuts per member.  Returns the
    simulated wire size of every slice (shape ``bounds.shape`` less one on
    the last axis) without materializing a payload view: a per-piece Python
    loop would make a ``k``-way round O(k^2) interpreter work.  A slice never
    spans two members, so a run that happens to continue across a band
    boundary is never counted inside one.
    """
    # breaks_before[p]: contiguous-run starts at payload positions 1..p-1.
    breaks_before = np.zeros(len(pixels) + 1, dtype=np.int64)
    if len(pixels) > 1:
        np.cumsum(np.diff(pixels) != 1, out=breaks_before[2:])
    lows, highs = bounds[..., :-1], bounds[..., 1:]
    active = highs - lows
    runs = 1 + breaks_before[highs] - breaks_before[np.minimum(lows + 1, highs)]
    nbytes = 64.0 + 16.0 * runs + (40.0 if with_depth else 32.0) * active
    return np.where(active > 0, nbytes, 64.0)


def run_image_from_framebuffer(framebuffer: Framebuffer, mode: str, key: int = 0) -> RunImage:
    """Compact one rank's framebuffer into a :class:`RunImage`."""
    rgba = framebuffer.rgba.reshape(-1, 4)
    depth = framebuffer.depth.reshape(-1)
    pixels = np.flatnonzero(active_mask(rgba, depth, mode))
    active_depth = np.full(len(pixels), float(key)) if mode == "over" else depth[pixels]
    return RunImage(framebuffer.width, framebuffer.height, pixels, rgba[pixels], active_depth, key=key)
