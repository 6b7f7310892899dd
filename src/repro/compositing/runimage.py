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
* ``run_offsets`` / ``run_lengths`` -- the contiguous-run view of ``pixels``
  (per-run start pixel and length), derived lazily.  Runs are the *wire*
  representation: simulated exchanges charge the network for IceT-style
  run-length-encoded pieces (16-byte run header + SoA payload; see
  :meth:`RunImage.wire_bytes`), which is what makes the exchanged byte
  counts shrink with the active-pixel footprint.

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

from dataclasses import dataclass, field

import numpy as np

from repro.rendering.framebuffer import Framebuffer

__all__ = [
    "RunImage",
    "active_mask",
    "expand_runs",
    "runs_from_pixels",
    "run_image_from_framebuffer",
    "wire_bytes_table",
]


def runs_from_pixels(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous ``(offsets, lengths)`` runs of an ascending pixel-id array."""
    pixels = np.asarray(pixels, dtype=np.int64)
    if len(pixels) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    breaks = np.flatnonzero(np.diff(pixels) != 1)
    starts = np.concatenate(([0], breaks + 1))
    stops = np.concatenate((breaks + 1, [len(pixels)]))
    return pixels[starts], (stops - starts).astype(np.int64)


def expand_runs(offsets: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Invert :func:`runs_from_pixels`: the ascending active pixel ids."""
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
    _positions: np.ndarray | None = field(default=None, repr=False, compare=False)

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

    # -- the run-length view ----------------------------------------------------------
    @property
    def _run_positions(self) -> np.ndarray:
        """Payload positions where a new contiguous run starts (excluding 0)."""
        if self._positions is None:
            self._positions = np.flatnonzero(np.diff(self.pixels) != 1) + 1
        return self._positions

    @property
    def num_runs(self) -> int:
        return 0 if len(self.pixels) == 0 else 1 + len(self._run_positions)

    @property
    def run_offsets(self) -> np.ndarray:
        """Start pixel of each contiguous active run."""
        if len(self.pixels) == 0:
            return np.empty(0, dtype=np.int64)
        return self.pixels[np.concatenate(([0], self._run_positions))]

    @property
    def run_lengths(self) -> np.ndarray:
        """Length of each contiguous active run."""
        if len(self.pixels) == 0:
            return np.empty(0, dtype=np.int64)
        bounds = np.concatenate(([0], self._run_positions, [len(self.pixels)]))
        return np.diff(bounds).astype(np.int64)

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

    # -- pieces (the exchange granularity) ---------------------------------------------
    def wire_bytes(self, lo: int, hi: int, with_depth: bool) -> float:
        """Simulated wire size of payload slice ``[lo, hi)`` in run-length encoding.

        The wire layout is IceT-style compressed sub-images: a 16-byte
        ``(offset, length)`` header per run, 32 bytes of straight-alpha RGBA
        per active pixel, 8 more bytes per pixel for the depth plane in
        ``"depth"`` mode (``"over"`` sends the scalar visibility key
        instead), plus a 64-byte message header.
        """
        active = hi - lo
        if active <= 0:
            return 64.0
        if self._positions is not None:
            positions = self._positions
            runs = 1 + int(
                np.searchsorted(positions, hi, side="left") - np.searchsorted(positions, lo, side="right")
            )
        else:
            # Count run breaks inside the slice directly -- cheaper than
            # materializing the whole image's run positions for one piece.
            runs = 1 + int(np.count_nonzero(np.diff(self.pixels[lo:hi]) != 1))
        return 64.0 + 16.0 * runs + (40.0 if with_depth else 32.0) * active

    def piece_message(self, start: int, stop: int, with_depth: bool = True):
        """The exchange form of ``[start, stop)``: ``(payload, wire_bytes)``.

        ``payload`` is ``(pixels, rgba, depth_or_None, key)`` -- zero-copy
        views handed straight to the receiving rank (all ranks share the
        process), while ``wire_bytes`` is the run-length-encoded size the
        simulated network charges for the transfer (see :meth:`wire_bytes`).
        ``"over"`` compositing sends no depth plane: the scalar visibility
        key stands in for it.
        """
        lo, hi = np.searchsorted(self.pixels, (start, stop)).tolist()
        payload = (
            self.pixels[lo:hi],
            self.rgba[lo:hi],
            self.depth[lo:hi] if with_depth else None,
            self.key,
        )
        return payload, self.wire_bytes(lo, hi, with_depth)


def wire_bytes_table(pixels: np.ndarray, bounds: np.ndarray, with_depth: bool) -> np.ndarray:
    """Vectorized :meth:`RunImage.wire_bytes` of the slices ``[bounds[..., i], bounds[..., i+1])``.

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
