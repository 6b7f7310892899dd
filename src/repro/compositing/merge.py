"""Batched fragment merging: the pixel-blend kernels of the fast compositing path.

The dense reference path (:mod:`repro.compositing.reference`) merges pixel
runs one pair at a time with :func:`repro.compositing.image.composite_pixels`
-- O(pixels · pieces) Python work per compositing round.  The fast path
hands the kernels a whole exchange round at once: the driver offsets every
owner's fragments into the disjoint pixel band ``owner * num_pixels + pixel``,
so any number of merge groups are one ascending stream (or one bag) and a
round costs a constant number of array operations.  Three kernels:

* :func:`merge_sorted_pair` -- vectorized union of two pixel-sorted fragment
  streams (two-pointer merge via ``searchsorted``, no sort).  Shared pixels
  are blended with exactly the straight-alpha OVER formula of
  ``composite_pixels`` (``"over"``), or selected by nearest depth with
  smallest-key tie-breaking (``"depth"``).  A round of narrow groups --
  binary-swap's pairs, radix-k's k-way groups -- folds through this kernel
  one group member at a time in ascending visibility-key order, the
  association of the reference's ``_ordered_fold``, so results agree to
  floating-point roundoff (well inside the 1e-10 differential tolerance).
* :func:`merge_fragments` -- a round of wide groups (a radix above
  :data:`PAIRWISE_FOLD_MAX_SETS`): one sort groups the whole round's
  fragment bag per pixel, then the device-routed
  :func:`repro.dpp.primitives.segmented_argmin` picks each pixel's nearest
  fragment (``"depth"``), or the fragments are folded front-to-back one
  *visibility layer* at a time with vectorized OVER blends (``"over"``).
* :func:`fold_bag_into_partial` -- the same bag, folded onto a running
  partial: how a *first*-round group too wide to hold live is streamed.

All three apply the same elementwise operations in the same per-pixel
order, so which one resolves a round changes the time, never a bit.

``"over"`` merging tracks visibility through the integer keys alone; the
per-pixel depth of an over-mode merge is not meaningful and is returned as
zeros (the final image's depth plane is the front-most visibility position,
written at assembly).
"""

from __future__ import annotations

import numpy as np

from repro.dpp.primitives import gather, segmented_argmin

__all__ = ["merge_fragments", "merge_sorted_pair", "fold_bag_into_partial"]

#: A round whose groups have at most this many members folds member by member
#: through :func:`merge_sorted_pair` -- ``radix - 1`` passes over the growing
#: result, no sort; a wider round is one sorted bag (and the driver streams a
#: wider *first*-round group through :func:`fold_bag_into_partial`).  Measured
#: on whole composites at 128^2: radix 2 folds 1.2-1.4x faster than it bags,
#: radix 4 ties, radix 9-18 bags 1.1-1.9x faster than it folds.
PAIRWISE_FOLD_MAX_SETS = 8

#: Shared ascending-index pool; slicing it replaces per-merge ``np.arange``
#: allocations (grown on demand for larger images).
_INDEX_POOL = np.arange(1 << 18, dtype=np.int64)


def _indices(count: int) -> np.ndarray:
    global _INDEX_POOL
    if count > len(_INDEX_POOL):
        _INDEX_POOL = np.arange(max(count, 2 * len(_INDEX_POOL)), dtype=np.int64)
    return _INDEX_POOL[:count]


def _blend_over(front_rgba: np.ndarray, back_rgba: np.ndarray) -> np.ndarray:
    """Front-to-back straight-alpha OVER (the formula of ``composite_pixels``)."""
    alpha_front = front_rgba[:, 3]
    back_weight = back_rgba[:, 3] * (1.0 - alpha_front)
    alpha = alpha_front + back_weight
    safe_alpha = np.where(alpha > 0.0, alpha, 1.0)
    out = np.empty((len(front_rgba), 4), dtype=np.float64)
    rgb = out[:, :3]
    np.multiply(back_rgba[:, :3], back_weight[:, None], out=rgb)
    rgb += front_rgba[:, :3] * alpha_front[:, None]
    rgb /= safe_alpha[:, None]
    out[:, 3] = alpha
    return out


def _align_union(
    front_pix: np.ndarray, back_pix: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Destination layout for the sorted union of two ascending pixel streams.

    Returns ``(out_pix, front_dest, back_dest, shared_front, shared_back)``:
    the union pixel ids, each stream's scatter destinations (``back_dest``
    covers back-only elements, selected by the boolean ``shared_back``'s
    complement), and the aligned positions of the shared pixels in each
    stream (``shared_front`` indexes ``front``, ``shared_back`` is a boolean
    mask over ``back``).
    """
    positions = np.searchsorted(front_pix, back_pix)
    shared_back = (positions < len(front_pix)) & (
        np.take(front_pix, positions, mode="clip") == back_pix
    )
    shared_front = positions[shared_back]
    back_only = ~shared_back
    back_only_pix = back_pix[back_only]
    # positions[back_only] counts the front elements before each back-only
    # pixel; histogramming those insertion points gives the back-only count
    # before each front element in linear time (no second binary search).
    back_only_positions = positions[back_only]
    inserted_before = np.cumsum(np.bincount(back_only_positions, minlength=len(front_pix) + 1))
    front_dest = _indices(len(front_pix)) + inserted_before[: len(front_pix)]
    back_dest = _indices(len(back_only_pix)) + back_only_positions
    out_pix = np.empty(len(front_pix) + len(back_only_pix), dtype=np.int64)
    out_pix[front_dest] = front_pix
    out_pix[back_dest] = back_only_pix
    return out_pix, front_dest, back_dest, shared_front, shared_back


def merge_sorted_pair(
    front: tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None],
    back: tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None],
    mode: str,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None], int]:
    """Union-merge two pixel-sorted fragment streams without a sort.

    Each stream is ``(pixels, rgba, depth, keys)`` with strictly ascending
    pixels.  For ``"over"`` the ``front`` stream must be entirely in front of
    ``back`` (the exchange algorithms fold in ascending key order, which
    guarantees it); ``depth`` and ``keys`` may be ``None`` and are ignored.
    For ``"depth"`` both are required, and per-element ``keys`` break
    equal-depth ties toward the smaller key, matching the serial
    first-minimum sweep of the reference fold.

    Returns ``((pixels, rgba, depth, keys), merge_ops)`` where ``merge_ops``
    counts the shared pixels that were actually blended.
    """
    front_pix, front_rgba, front_depth, front_keys = front
    back_pix, back_rgba, back_depth, back_keys = back
    if len(front_pix) == 0:
        return back, 0
    if len(back_pix) == 0:
        return front, 0
    if mode not in ("depth", "over"):
        raise ValueError(f"unknown compositing mode {mode!r}")
    with_depth = mode == "depth"

    out_pix, front_dest, back_dest, shared_front, shared_back = _align_union(front_pix, back_pix)
    back_only = ~shared_back
    total = len(out_pix)
    out_rgba = np.empty((total, 4), dtype=np.float64)
    out_rgba[front_dest] = front_rgba
    # ndarray.take copies whole rgba rows: ~4x the speed of boolean or fancy indexing.
    out_rgba[back_dest] = back_rgba.take(np.flatnonzero(back_only), axis=0)
    out_depth = out_keys = None
    if with_depth:
        out_depth = np.empty(total, dtype=np.float64)
        out_depth[front_dest] = front_depth
        out_depth[back_dest] = back_depth[back_only]
        out_keys = np.empty(total, dtype=np.int64)
        out_keys[front_dest] = front_keys
        out_keys[back_dest] = back_keys[back_only]

    merge_ops = len(front_pix) + len(back_pix) - total
    if merge_ops:
        shared_dest = front_dest[shared_front]
        if with_depth:
            depth_a = front_depth[shared_front]
            depth_b = back_depth[shared_back]
            keys_a = front_keys[shared_front]
            keys_b = back_keys[shared_back]
            take_b = (depth_b < depth_a) | ((depth_b == depth_a) & (keys_b < keys_a))
            out_rgba[shared_dest] = np.where(
                take_b[:, None], back_rgba[shared_back], front_rgba[shared_front]
            )
            out_depth[shared_dest] = np.where(take_b, depth_b, depth_a)
            out_keys[shared_dest] = np.where(take_b, keys_b, keys_a)
        else:
            out_rgba[shared_dest] = _blend_over(
                front_rgba.take(shared_front, axis=0),
                back_rgba.take(np.flatnonzero(shared_back), axis=0),
            )
    return (out_pix, out_rgba, out_depth, out_keys), merge_ops


def merge_fragments(
    pixels: np.ndarray,
    keys: np.ndarray | None,
    rgba: np.ndarray,
    depth: np.ndarray | None,
    mode: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Merge an arbitrary bag of fragments down to one fragment per pixel.

    Parameters
    ----------
    pixels:
        ``(F,)`` int64 pixel ids (several fragments may share a pixel).
    keys:
        ``(F,)`` non-negative integer visibility keys; within one pixel, keys
        are distinct and ascending key must equal ascending (front-to-back)
        depth -- the precondition the exchange algorithms guarantee.  Pass
        ``None`` when the fragments are already concatenated in ascending
        key order (per pixel); position then serves as the implicit key.
    rgba, depth:
        ``(F, 4)`` straight-alpha colors and ``(F,)`` depths (``depth`` is
        required for ``"depth"``, ignored -- may be ``None`` -- for
        ``"over"``).
    mode:
        ``"depth"`` (z-buffer nearest) or ``"over"`` (front-to-back blend).

    Returns
    -------
    (pixels, rgba, depth, merge_ops):
        One fragment per unique pixel, ascending; ``merge_ops`` counts the
        equivalent pairwise merges (fragments minus surviving pixels).  The
        returned depth is zeros for ``"over"`` (see module doc).
    """
    pixels = np.asarray(pixels, dtype=np.int64)
    if len(pixels) == 0:
        return pixels, np.empty((0, 4)), np.empty(0), 0
    if mode not in ("depth", "over"):
        raise ValueError(f"unknown compositing mode {mode!r}")
    if keys is None:
        # The caller concatenated fragments in ascending key order, so a
        # stable sort on the pixel id alone keeps front-to-back order within
        # each pixel, and the fragment position doubles as the tie-break key.
        order = np.argsort(pixels, kind="stable")
        keys_sorted = None
    else:
        # One flat sort on a combined (pixel, key) code replaces a two-pass
        # lexsort; codes are unique, so an unstable sort is deterministic.
        keys = np.asarray(keys, dtype=np.int64)
        span = int(keys.max()) + 1
        order = np.argsort(pixels * span + keys)
        keys_sorted = keys[order]
    pixels_sorted = pixels[order]
    rgba_sorted = np.asarray(rgba, dtype=np.float64)[order]

    boundary = np.empty(len(pixels_sorted), dtype=bool)
    boundary[0] = True
    np.not_equal(pixels_sorted[1:], pixels_sorted[:-1], out=boundary[1:])
    segment_starts = np.flatnonzero(boundary)
    unique_pixels = pixels_sorted[segment_starts]
    merge_ops = int(len(pixels_sorted) - len(segment_starts))

    if mode == "depth":
        depth_sorted = np.asarray(depth, dtype=np.float64)[order]
        if keys_sorted is None:
            keys_sorted = np.arange(len(pixels_sorted), dtype=np.int64)
        winners = segmented_argmin(depth_sorted, segment_starts, keys_sorted)
        return unique_pixels, gather(rgba_sorted, winners), gather(depth_sorted, winners), merge_ops

    # Visibility layer of each fragment within its pixel: 0 is front-most.
    # Layer j of a segment sits at segment_start + j, so each fold level
    # selects its rows straight from the segment table -- no second sort.
    counts = np.diff(np.append(segment_starts, len(pixels_sorted)))
    acc_rgba = rgba_sorted[segment_starts].copy()
    if merge_ops:
        for depth_layer in range(1, int(counts.max())):
            segments = np.flatnonzero(counts > depth_layer)
            rows = segment_starts[segments] + depth_layer
            acc_rgba[segments] = _blend_over(acc_rgba[segments], rgba_sorted[rows])
    return unique_pixels, acc_rgba, np.zeros(len(unique_pixels)), merge_ops


def fold_bag_into_partial(
    partial: tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None] | None,
    pixels: np.ndarray,
    rgba: np.ndarray,
    depth: np.ndarray | None,
    keys: np.ndarray | None,
    mode: str,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None], int]:
    """Fold one cohort's fragment bag onto a running one-fragment-per-pixel partial.

    This is the streaming counterpart of :func:`merge_fragments`: the cohort
    scheduler generates a bounded batch of rank images, concatenates their
    fragments into a bag, folds the bag here, and retires the batch -- so a
    P-way composite never holds more than a cohort of live images plus the
    partial.  The bag must be concatenated in ascending visibility-key order
    (per pixel), the same precondition the in-memory bag path relies on.

    ``partial`` is ``None`` (first cohort) or ``(pixels, rgba, depth, keys)``
    with strictly ascending unique pixels.  For ``"over"`` the partial is
    strictly in *front* of the bag (cohorts stream in ascending key order);
    ``depth``/``keys`` are ignored and carried as ``None``.  For ``"depth"``
    the bag ``keys`` and ``depth`` are required, and the partial carries the
    winning fragment's depth and key so later cohorts keep tie-breaking
    exactly as the dense tournament does.

    The per-pixel operation chain is *identical* to folding the concatenated
    bags of every cohort through :func:`merge_fragments` at once: ``"depth"``
    is a pure (depth, key)-lexicographic selection (associative, exact), and
    ``"over"`` continues the same strict front-to-back left fold per pixel --
    the blends are elementwise, so batching per cohort cannot change a single
    bit of the result.  ``merge_ops`` telescopes the same way: summed over
    cohorts it equals fragments minus surviving pixels, the dense count.

    Returns ``((pixels, rgba, depth, keys), merge_ops)``.
    """
    if mode not in ("depth", "over"):
        raise ValueError(f"unknown compositing mode {mode!r}")
    with_depth = mode == "depth"
    if partial is None:
        empty = np.empty(0, dtype=np.int64)
        partial = (
            empty,
            np.empty((0, 4), dtype=np.float64),
            np.empty(0, dtype=np.float64) if with_depth else None,
            empty.copy() if with_depth else None,
        )
    pixels = np.asarray(pixels, dtype=np.int64)
    if len(pixels) == 0:
        return partial, 0

    # The bag arrives concatenated in ascending key order per pixel, so a
    # stable sort on the pixel id alone preserves front-to-back order within
    # each pixel (exactly the keys=None contract of merge_fragments).
    order = np.argsort(pixels, kind="stable")
    pixels_sorted = pixels[order]
    rgba_sorted = np.asarray(rgba, dtype=np.float64)[order]
    boundary = np.empty(len(pixels_sorted), dtype=bool)
    boundary[0] = True
    np.not_equal(pixels_sorted[1:], pixels_sorted[:-1], out=boundary[1:])
    segment_starts = np.flatnonzero(boundary)
    unique_pixels = pixels_sorted[segment_starts]
    bag_ops = int(len(pixels_sorted) - len(segment_starts))

    if with_depth:
        if depth is None or keys is None:
            raise ValueError("'depth' streaming folds require bag depth and keys")
        depth_sorted = np.asarray(depth, dtype=np.float64)[order]
        keys_sorted = np.asarray(keys, dtype=np.int64)[order]
        winners = segmented_argmin(depth_sorted, segment_starts, keys_sorted)
        bag = (
            unique_pixels,
            gather(rgba_sorted, winners),
            gather(depth_sorted, winners),
            keys_sorted[winners],
        )
        merged, shared_ops = merge_sorted_pair(partial, bag, "depth")
        return merged, bag_ops + shared_ops

    part_pix, part_rgba = partial[0], partial[1]
    if len(part_pix) == 0:
        out_pix = unique_pixels
        out_rgba = rgba_sorted[segment_starts].copy()
        bag_dest = _indices(len(unique_pixels))
        shared_ops = 0
    else:
        out_pix, front_dest, back_dest, shared_front, shared_back = _align_union(
            part_pix, unique_pixels
        )
        out_rgba = np.empty((len(out_pix), 4), dtype=np.float64)
        out_rgba[front_dest] = part_rgba
        out_rgba[back_dest] = rgba_sorted[segment_starts[~shared_back]]
        # Where the partial already owns the pixel, the bag's front-most layer
        # blends *behind* it -- the continuation of the running left fold.
        shared_ops = int(np.count_nonzero(shared_back))
        if shared_ops:
            shared_dest = front_dest[shared_front]
            out_rgba[shared_dest] = _blend_over(
                part_rgba[shared_front], rgba_sorted[segment_starts[shared_back]]
            )
        bag_dest = np.empty(len(unique_pixels), dtype=np.int64)
        bag_dest[shared_back] = front_dest[shared_front]
        bag_dest[~shared_back] = back_dest
    counts = np.diff(np.append(segment_starts, len(pixels_sorted)))
    if bag_ops:
        for depth_layer in range(1, int(counts.max())):
            segments = np.flatnonzero(counts > depth_layer)
            rows = segment_starts[segments] + depth_layer
            dest = bag_dest[segments]
            out_rgba[dest] = _blend_over(out_rgba[dest], rgba_sorted[rows])
    return (out_pix, out_rgba, None, None), bag_ops + shared_ops
