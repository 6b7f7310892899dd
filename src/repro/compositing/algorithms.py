"""One schedule-driven cohort driver for the three sort-last exchange algorithms.

Direct send (Neumann 1993), binary swap (Ma et al. 1994) and radix-k
(Peterka et al., the algorithm IceT and the paper's experiments use) are one
family: the participants are numbered in a mixed-radix system, round ``r``
runs a ``radices[r]``-way exchange inside every group of participants that
differ only in digit ``r``, each member keeps piece ``digit`` of the group's
shared pixel interval, and the surviving pieces are gathered at rank 0.
:func:`schedule_for` writes each algorithm down as a :class:`Schedule` value:

* ``"direct-send"`` -- one ``P``-way round (``radices = (P,)``);
* ``"binary-swap"`` -- ``log2`` two-way rounds over the largest power of two
  of participants, after a prologue that folds the trailing ranks pairwise
  so non-power-of-two task counts fit;
* ``"radix-k"`` -- :func:`factor_radices` of the task count, or the caller's
  explicit (validated) schedule.

:func:`run_schedule` executes any schedule.  Per-rank images are
:class:`~repro.compositing.runimage.RunImage` (contiguous active-pixel runs
with an SoA payload) produced on demand by ``factory(position)``.  A round
is round-synchronous: the members of all its groups sit end to end in one
stream, each in its own pixel band, so one ``searchsorted`` cuts every
member, one byte table charges every link, and the kernels of
:mod:`repro.compositing.merge` fold every group together -- O(radix) array
operations a round instead of O(groups) Python calls.  The communication
pattern (who sends which run to whom, and where the round boundaries fall)
is that of the dense reference drivers in :mod:`repro.compositing.reference`,
which the differential tests hold this module to within 1e-10.

The driver is a cohort scheduler: at most ``max_live_ranks`` full rank images
are live at once (plus one transient -- a running partial, or the second
member of a prologue pair), so the same code runs 8 ranks held in a list and
16,384 ranks generated on the fly.  Cohort execution is a pure reordering of
the schedule's merge operations -- OVER blends are elementwise and depth
selection is an exact (depth, key) tournament -- so the result is
bit-identical for every ``max_live_ranks``.

Ordering note: the OVER operator is only associative when every pairwise
merge combines fragments that are adjacent and contiguous in visibility
order.  Position ``p`` of the factory is visibility position ``p`` (ascending
= front to back), participants are numbered in ascending rank order, and
every merge folds a group's pieces in that order, exactly as the reference's
``_ordered_fold`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.compositing.merge import (
    PAIRWISE_FOLD_MAX_SETS,
    fold_bag_into_partial,
    merge_fragments,
    merge_sorted_pair,
)
from repro.compositing.runimage import RunImage, expand_runs, wire_bytes_table
from repro.runtime.communicator import SimulatedCommunicator
from repro.util.timing import Timer

__all__ = [
    "ALGORITHMS",
    "get_algorithm",
    "Schedule",
    "schedule_for",
    "run_schedule",
    "factor_radices",
    "validate_radices",
    "RadixFactorError",
    "StreamStats",
]

ALGORITHMS = ("direct-send", "binary-swap", "radix-k")


def get_algorithm(name: str) -> str:
    """``name`` if it is a compositing algorithm; the one place an unknown name is rejected."""
    if name not in ALGORITHMS:
        choices = ", ".join(ALGORITHMS)
        raise ValueError(f"unknown compositing algorithm {name!r}; choose from {choices}")
    return name


def _partition_edges(lengths, parts: int) -> np.ndarray:
    """``np.linspace(0, n, parts + 1).astype(int64)`` for every ``n`` in ``lengths``.

    ``lengths`` is a scalar or an array (the result gains a trailing axis):
    an exchange round cuts every member's interval in one call.  The
    arithmetic is ``np.linspace``'s own -- ``i * (n / parts)``, end point
    exact -- because the cut points are part of the wire accounting.
    """
    lengths = np.asarray(lengths, dtype=np.float64)
    edges = (np.arange(parts + 1) * (lengths[..., None] / parts)).astype(np.int64)
    edges[..., -1] = lengths
    return edges


def _pixel_partition(num_pixels: int, parts: int) -> list[tuple[int, int]]:
    """Split ``[0, num_pixels)`` into ``parts`` near-equal contiguous runs."""
    edges = _partition_edges(num_pixels, parts)
    return [(int(edges[i]), int(edges[i + 1])) for i in range(parts)]


class RadixFactorError(ValueError):
    """A radix schedule that does not exactly tile the rank count.

    Every radix-k exchange round partitions each group's owned pixel run into
    ``radix`` pieces -- one per group member -- so the product of the radices
    must equal the task count exactly.  A schedule that multiplies out short
    (or long) would silently drop (or invent) group members at large P, which
    is why this is a structured error: the study CLI maps it to its own exit
    code and reports ``size``/``radices``/``product`` machine-readably.
    """

    def __init__(self, size: int, radices, reason: str | None = None) -> None:
        self.size = int(size)
        self.radices = tuple(int(r) for r in radices)
        self.product = int(np.prod(self.radices)) if self.radices else 0
        message = reason or (
            f"radix schedule {list(self.radices)} multiplies out to {self.product} "
            f"ranks but must cover exactly {self.size}; every round's k-way groups "
            "tile the rank count, so no radix may be truncated"
        )
        super().__init__(message)

    def as_dict(self) -> dict:
        """Machine-readable form (the study CLI prints this as JSON)."""
        return {
            "error": "radix-factorization",
            "size": self.size,
            "radices": list(self.radices),
            "product": self.product,
            "message": str(self),
        }


def validate_radices(size: int, radices) -> list[int]:
    """Check a radix schedule against a task count; returns it normalized to ints.

    Raises :class:`RadixFactorError` when the schedule is empty, contains a
    non-positive radix, or its product differs from ``size``.
    """
    schedule = [int(r) for r in radices]
    if not schedule:
        raise RadixFactorError(size, schedule, reason="radix schedule must not be empty")
    if any(r < 1 for r in schedule):
        raise RadixFactorError(
            size, schedule, reason=f"radix schedule {schedule} contains a non-positive radix"
        )
    if int(np.prod(schedule)) != int(size):
        raise RadixFactorError(size, schedule)
    return schedule


def factor_radices(size: int, target: int = 4) -> list[int]:
    """Factor a task count into radices no larger than ``target`` (prefer larger factors).

    The result always satisfies :func:`validate_radices` -- any remaining
    co-factor larger than ``target`` becomes a final (large) radix rather
    than being truncated.
    """
    if size < 1:
        raise ValueError("size must be positive")
    radices: list[int] = []
    remaining = size
    divisor = target
    while remaining > 1 and divisor >= 2:
        while remaining % divisor == 0:
            radices.append(divisor)
            remaining //= divisor
        divisor -= 1
    if remaining > 1:
        radices.append(remaining)
    return validate_radices(size, radices or [1])


def _mixed_radix_digits(rank: int, radices: list[int]) -> list[int]:
    """Digits of ``rank`` in the mixed-radix system defined by ``radices``."""
    digits = []
    for radix in radices:
        digits.append(rank % radix)
        rank //= radix
    return digits


@dataclass(frozen=True)
class Schedule:
    """One exchange algorithm at one task count, as data.

    ``radices[r]`` is the group width of exchange round ``r`` over the
    *participants*; ``participants[i]`` is the rank whose link carries
    participant ``i``'s traffic (ascending, and rank 0 is participant 0).
    ``fold_pairs`` is the prologue: each ``(keeper, sender)`` pair of ranks is
    merged at the keeper -- a participant -- in a round of its own before the
    first exchange.

    The last two attributes are the only places direct-send's wire accounting
    differs from a one-round radix-k: it posts nothing for an owner whose
    pixel interval is empty (more ranks than pixels), where radix-k still
    sends the 64-byte message header, and it goes straight from its exchange
    to the gather, where binary-swap and radix-k close every exchange round
    (leaving one empty round in the log before the gather).
    """

    radices: tuple[int, ...]
    participants: tuple[int, ...]
    fold_pairs: tuple[tuple[int, int], ...] = ()
    skip_empty_pieces: bool = False
    trailing_round: bool = True


def schedule_for(algorithm: str, size: int, radices=None) -> Schedule:
    """The :class:`Schedule` of ``algorithm`` over ``size`` ranks.

    ``radices`` is radix-k's explicit schedule (:class:`RadixFactorError`
    unless its product is ``size``); the other two algorithms take none.
    """
    if size < 1:
        raise ValueError("a compositing schedule needs at least one rank")
    algorithm = get_algorithm(algorithm)
    if algorithm == "direct-send":
        return Schedule((size,), tuple(range(size)), skip_empty_pieces=True, trailing_round=False)
    if algorithm == "binary-swap":
        # The trailing 2 * (size - power) ranks fold pairwise, so the `power`
        # participants still hold contiguous runs of the visibility order.
        power = 1 << (size.bit_length() - 1)
        pairs = tuple((keeper, keeper + 1) for keeper in range(2 * power - size, size, 2))
        participants = tuple(range(2 * power - size)) + tuple(keeper for keeper, _ in pairs)
        return Schedule((2,) * (power.bit_length() - 1), participants, fold_pairs=pairs)
    # radix-k: the caller's schedule, or the task count factored.
    radices = factor_radices(size) if radices is None else validate_radices(size, radices)
    return Schedule(tuple(radices), tuple(range(size)))


@dataclass(frozen=True)
class StreamStats:
    """Cohort-execution bookkeeping reported alongside a streamed composite.

    ``peak_live_images`` counts simultaneously-live *full rank images* (the
    memory contract bounds it by ``max_live_ranks + 1``); a running partial
    counts as one, retired pieces do not.  ``cohorts`` counts
    generate->merge->retire batches, and ``total_active_pixels`` accumulates
    every generated image's active-pixel count (the Eq. 5.5 ``avg(AP)``
    numerator, summed so the caller can average without holding the images).
    ``factory_seconds`` is the wall clock spent inside ``factory(position)``
    calls -- image generation, not compositing.
    """

    max_live_ranks: int
    peak_live_images: int
    cohorts: int
    total_active_pixels: int
    factory_seconds: float = 0.0


class _LiveLedger:
    """Counts live full rank images -- the scheduler's memory-contract witness -- and times their making."""

    def __init__(self) -> None:
        self.live = 0
        self.peak = 0
        self.factory_timer = Timer()

    def acquire(self, count: int = 1) -> None:
        self.live += count
        if self.live > self.peak:
            self.peak = self.live

    def release(self, count: int = 1) -> None:
        self.live -= count


def _materialize(
    factory: Callable[[int], RunImage],
    position: int,
    width: int,
    height: int,
    ledger: _LiveLedger,
) -> RunImage:
    """Generate one rank's image (on the factory's clock) and count it live."""
    with ledger.factory_timer:
        image = factory(position)
    if not isinstance(image, RunImage):
        raise TypeError(
            f"streaming factory must return a RunImage, got {type(image).__name__} "
            f"for position {position}"
        )
    if image.width != width or image.height != height:
        raise ValueError(
            f"factory image for position {position} is {image.width}x{image.height}, "
            f"expected {width}x{height}"
        )
    ledger.acquire()
    return image


def _concatenate(streams: list, with_depth: bool) -> tuple:
    """Member streams ``(pixels, rgba, depth)`` end to end (no depth plane in over mode)."""
    return (
        np.concatenate([stream[0] for stream in streams]),
        np.concatenate([stream[1] for stream in streams]),
        np.concatenate([stream[2] for stream in streams]) if with_depth else None,
    )


def run_schedule(
    schedule: Schedule,
    factory: Callable[[int], RunImage],
    width: int,
    height: int,
    comm: SimulatedCommunicator,
    mode: str,
    max_live_ranks: int,
) -> tuple[RunImage, int, StreamStats]:
    """Run ``schedule`` over ``factory``'s images; returns ``(final, merge_ops, stats)``.

    Group members of round ``r`` share every digit but digit ``r``, so rounds
    ``0..m-1`` stay inside aligned blocks of ``prod(radices[:m])`` consecutive
    participants.  Each block runs the longest such prefix that fits in
    ``max_live_ranks``: generate its members (folding prologue pairs on the
    fly), copy them into one *band* -- participant ``i``'s stream moved to
    pixels ``i * num_pixels + pixel``, so the members end to end are a single
    ascending stream -- release the images, run the local rounds band to
    band, and retire every member to its slice of the last round's output.
    The remaining rounds run over the retired pieces -- whose total size is
    bounded by per-block pixel coverage, not by the rank count -- in passes
    of whole groups totalling at most ``max_live_ranks`` members, and one
    gather assembles the image at rank 0.

    A round-0 group wider than the budget cannot be live at once, and one
    wider than :data:`~repro.compositing.merge.PAIRWISE_FOLD_MAX_SETS` is
    cheaper as a sorted bag than as pairwise folds.  Either way the group's
    k-way exchange *is* a per-pixel left fold of its members in rank order,
    so it streams instead: chunks of at most ``max_live_ranks`` members are
    folded onto one running partial
    (:func:`~repro.compositing.merge.fold_bag_into_partial` -- the identical
    operation chain, split at chunk boundaries) and the partial is sliced
    into the members' pieces.  A schedule with a prologue keeps to blocks --
    a pair's second member and a running partial would both sit on top of
    the budget.

    No message is ever enumerated (a 16k-rank direct send is ``P^2`` of
    them): every round's traffic is summed per link from a vectorized byte
    table -- wire sizes are whole numbers of bytes, so the sums are exact in
    any order -- under the logical round it belongs to, however the blocks
    interleave in wall-clock time, and posted once with
    ``record_link_totals``.
    """
    num_pixels = width * height
    with_depth = mode == "depth"  # over-mode payloads drop the depth plane (the key stands in)
    budget = int(max_live_ranks)
    radices = schedule.radices
    participants = np.asarray(schedule.participants, dtype=np.int64)
    count = len(participants)
    fold_partner = dict(schedule.fold_pairs)
    first_round = 1 if fold_partner else 0
    assembly_round = first_round + len(radices) + int(schedule.trailing_round)
    # traffic[round] rows: sent bytes, sent messages, received bytes, received messages.
    traffic = np.zeros((assembly_round + 1, 4, comm.size))

    ledger = _LiveLedger()
    merges = total_active = cohorts = 0
    pieces: list = [None] * count  # participant i's retired stream, in band i
    owned = np.empty((count, 2), dtype=np.int64)

    def keyed(stream, key: int) -> tuple:
        """``stream`` with the per-fragment tie-break keys a depth merge needs."""
        return (*stream, np.full(len(stream[0]), key, dtype=np.int64) if with_depth else None)

    def generate(index: int) -> tuple:
        """Participant ``index``'s stream, its prologue partner already folded in."""
        nonlocal merges, total_active
        rank = int(participants[index])
        image = _materialize(factory, rank, width, height, ledger)
        total_active += image.active_pixels
        stream = (image.pixels, image.rgba, image.depth if with_depth else None)
        if rank in fold_partner:
            sender = fold_partner[rank]
            partner = _materialize(factory, sender, width, height, ledger)
            total_active += partner.active_pixels
            nbytes = wire_bytes_table(partner.pixels, np.array([0, partner.active_pixels]), with_depth)[0]
            traffic[0, :2, sender] += nbytes, 1
            traffic[0, 2:, rank] += nbytes, 1
            back = (partner.pixels, partner.rgba, partner.depth if with_depth else None)
            merged, folded = merge_sorted_pair(keyed(stream, rank), keyed(back, sender), mode)
            merges += folded
            stream = merged[:3]
            ledger.release()  # the folded pair partner retires immediately
        return stream

    def retire(band, members: np.ndarray, intervals: np.ndarray) -> None:
        """Keep each member's slice of ``band`` (the slices tile it, so views pin nothing extra)."""
        cuts = np.searchsorted(band[0], np.append(members, members[-1] + 1) * num_pixels).tolist()
        for index, lo, hi in zip(members.tolist(), cuts, cuts[1:]):
            pieces[index] = tuple(None if plane is None else plane[lo:hi] for plane in band)
        owned[members] = intervals

    def cut_round(band, members: np.ndarray, intervals: np.ndarray, round_index: int, stride: int):
        """Cut and charge round ``round_index`` over the whole groups ``members`` (ascending) held in ``band``.

        Every member cuts its interval ``radix`` ways, keeps piece ``digit``
        and sends each other piece to the group partner holding that digit.
        Returns ``(levels, intervals)``: the owners' new intervals, and what
        each owner is to fold, as copies (so the caller can drop ``band``
        before the fold allocates its output).  ``levels[l]`` is piece
        ``digit(owner)`` of each owner's ``l``-th group member, moved into
        the owner's band -- one ascending stream over all owners; a round
        wider than ``PAIRWISE_FOLD_MAX_SETS`` has a single entry, every
        member's piece owner-major, so that each pixel's fragments arrive in
        rank order.
        """
        pixels, rgba, depth = band
        radix = radices[round_index]
        slots = np.arange(len(members))
        digits = members // stride % radix
        edges = intervals[:, :1] + _partition_edges(intervals[:, 1] - intervals[:, 0], radix)
        bounds = np.searchsorted(pixels, edges + (members * num_pixels)[:, None])
        # sources[o, l]: the slot of the l-th member of owner o's group.
        partners = members[:, None] + (np.arange(radix) - digits[:, None]) * stride
        sources = np.searchsorted(members, partners)

        posted = np.ones((len(members), radix), dtype=bool)
        posted[slots, digits] = False  # a member keeps its own piece
        if schedule.skip_empty_pieces:
            posted &= edges[:, 1:] > edges[:, :-1]
        nbytes = np.where(posted, wire_bytes_table(pixels, bounds, with_depth), 0.0)
        totals, ranks = traffic[first_round + round_index], participants[members]
        totals[0, ranks] += nbytes.sum(axis=1)
        totals[1, ranks] += posted.sum(axis=1)
        totals[2, ranks] += nbytes[sources, digits[:, None]].sum(axis=1)
        totals[3, ranks] += posted[sources, digits[:, None]].sum(axis=1)

        def gathered(levels: slice) -> tuple:
            source = sources[:, levels]
            lows = bounds[source, digits[:, None]].ravel()
            lengths = bounds[source, digits[:, None] + 1].ravel() - lows
            rows = expand_runs(lows, lengths)
            shift = ((members[:, None] - members[source]) * num_pixels).ravel()
            return (
                pixels[rows] + np.repeat(shift, lengths),
                rgba.take(rows, axis=0),  # whole rows at a time: ~4x the speed of rgba[rows]
                depth[rows] if with_depth else None,
                # Ranks ascend with the digit inside a group, so they serve as fold keys.
                np.repeat(ranks[source].ravel(), lengths) if with_depth else None,
            )

        wide = radix > PAIRWISE_FOLD_MAX_SETS
        levels = [slice(None)] if wide else [slice(level, level + 1) for level in range(radix)]
        intervals = np.stack([edges[slots, digits], edges[slots, digits + 1]], axis=1)
        return [gathered(level) for level in levels], intervals

    def fold_round(levels: list, radix: int) -> tuple:
        """The owners' band: every group of a cut round folded in rank order, ``levels`` freed on the way.

        A narrow round is ``radix - 1`` calls of
        :func:`~repro.compositing.merge.merge_sorted_pair` and a wide one a
        single :func:`~repro.compositing.merge.merge_fragments` bag, however
        many groups the round holds: the same elementwise blends in the same
        per-pixel order as one fold per group.
        """
        nonlocal merges
        merged = levels.pop(0)
        if radix > PAIRWISE_FOLD_MAX_SETS:
            bag_pixels, bag_rgba, bag_depth, keys = merged
            *merged, folded = merge_fragments(bag_pixels, keys, bag_rgba, bag_depth, mode)
            merges += folded
        while levels:
            merged, folded = merge_sorted_pair(merged, levels.pop(0), mode)
            merges += folded
        return merged[0], merged[1], merged[2] if with_depth else None

    if radices and (
        radices[0] > PAIRWISE_FOLD_MAX_SETS or (radices[0] > budget and not fold_partner)
    ):
        radix = radices[0]
        edges = _partition_edges(num_pixels, radix)
        posted = edges[1:] > edges[:-1] if schedule.skip_empty_pieces else np.ones(radix, dtype=bool)
        totals = traffic[first_round]
        for group_start in range(0, count, radix):
            group = np.arange(group_start, group_start + radix)
            group_ranks = participants[group]
            partial = None
            for chunk_start in range(group_start, group_start + radix, budget):
                cohorts += 1
                members = range(chunk_start, min(chunk_start + budget, group_start + radix))
                streams = [generate(index) for index in members]
                for index, stream in zip(members, streams):
                    cuts = np.searchsorted(stream[0], edges)
                    nbytes = wire_bytes_table(stream[0], cuts, with_depth)
                    mask = posted.copy()
                    mask[index - group_start] = False
                    totals[0, participants[index]] += nbytes[mask].sum()
                    totals[1, participants[index]] += np.count_nonzero(mask)
                    totals[2, group_ranks] += np.where(mask, nbytes, 0.0)
                    totals[3, group_ranks] += mask
                active = [len(stream[0]) for stream in streams]
                first_fold = partial is None
                partial, folded = fold_bag_into_partial(
                    partial,
                    *_concatenate(streams, with_depth),
                    np.repeat(np.asarray(members, dtype=np.int64), active) if with_depth else None,
                    mode,
                )
                merges += folded
                if first_fold:
                    ledger.acquire()  # the running partial counts as one live image
                del streams
                ledger.release(len(members))
            pixels, rgba, depth, _ = partial
            active = np.diff(np.searchsorted(pixels, edges))
            band = (pixels + np.repeat(group * num_pixels, active), rgba, depth)
            retire(band, group, np.stack([edges[:-1], edges[1:]], axis=1))
            ledger.release()
        local_rounds = 1
    else:
        block, local_rounds = 1, 0
        while local_rounds < len(radices) and block * radices[local_rounds] <= budget:
            block *= radices[local_rounds]
            local_rounds += 1
        for block_start in range(0, count, block):
            cohorts += 1
            members = np.arange(block_start, block_start + block)
            streams = [generate(index) for index in range(block_start, block_start + block)]
            active = [len(stream[0]) for stream in streams]
            band = _concatenate(streams, with_depth)
            del streams  # the band holds copies: the rank images go before the exchange
            np.add(band[0], np.repeat(members * num_pixels, active), out=band[0])
            intervals = np.tile(np.array([0, num_pixels]), (block, 1))
            stride = 1
            for round_index in range(local_rounds):
                levels, intervals = cut_round(band, members, intervals, round_index, stride)
                del band  # the cut stream goes before the fold allocates its output
                band = fold_round(levels, radices[round_index])
                stride *= radices[round_index]
            retire(band, members, intervals)
            ledger.release(block)

    stride = int(np.prod(radices[:local_rounds], dtype=np.int64))
    for round_index in range(local_rounds, len(radices)):
        radix = radices[round_index]
        # One base per group; a pass takes whole groups, budget members at most.
        groups = np.arange(count // radix)
        bases = groups // stride * (stride * radix) + groups % stride
        per_pass = max(1, budget // radix)
        for pass_start in range(0, len(bases), per_pass):
            group_bases = bases[pass_start : pass_start + per_pass]
            members = np.sort((group_bases[:, None] + np.arange(radix) * stride).ravel())
            band = _concatenate([pieces[index] for index in members.tolist()], with_depth)
            levels, intervals = cut_round(band, members, owned[members], round_index, stride)
            del band
            retire(fold_round(levels, radix), members, intervals)
        stride *= radix

    # Gather: the owned intervals tile [0, num_pixels), so the pieces sorted
    # by image pixel are the complete composited image.
    pixels, rgba, depth = _concatenate(pieces, with_depth)
    cuts = np.searchsorted(pixels, np.arange(count + 1) * num_pixels)
    nbytes = wire_bytes_table(pixels, cuts, with_depth)
    posted = owned[:, 1] > owned[:, 0]
    posted[0] = False  # participant 0 is rank 0, the root
    totals = traffic[assembly_round]
    totals[0, participants[posted]] = nbytes[posted]
    totals[1, participants[posted]] = 1
    totals[2:, 0] = nbytes[posted].sum(), np.count_nonzero(posted)
    for round_index, totals in enumerate(traffic):
        comm.record_link_totals(round_index, *totals)
    image_pixels = pixels % num_pixels
    order = np.argsort(image_pixels, kind="stable")  # owned intervals are disjoint
    final = RunImage.from_arrays(
        image_pixels[order],
        rgba[order],
        depth[order] if with_depth else np.zeros(len(order)),  # over-mode depth lives in the keys
        width,
        height,
    )
    stats = StreamStats(budget, ledger.peak, cohorts, total_active, ledger.factory_timer.elapsed)
    return final, merges, stats
