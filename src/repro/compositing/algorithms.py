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
with an SoA payload) produced on demand by ``factory(position)``; a round's
traffic is posted as one batched array-valued
:meth:`~repro.runtime.communicator.SimulatedCommunicator.exchange` and its
merges resolve in one :func:`~repro.compositing.merge.merge_groups` call --
O(rounds) array operations instead of O(pixels · pieces) Python work.  The
communication pattern (who sends which run to whom, and where the round
boundaries fall) is that of the dense reference drivers in
:mod:`repro.compositing.reference`, which the differential tests hold this
module to within 1e-10.

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

from repro.compositing.merge import PAIRWISE_FOLD_MAX_SETS, fold_bag_into_partial, merge_groups
from repro.compositing.runimage import RunImage
from repro.runtime.communicator import SimulatedCommunicator

__all__ = [
    "ALGORITHMS",
    "Schedule",
    "schedule_for",
    "run_schedule",
    "factor_radices",
    "validate_radices",
    "RadixFactorError",
    "StreamStats",
]

ALGORITHMS = ("direct-send", "binary-swap", "radix-k")


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


def _replace_image(template: RunImage, merged: tuple[np.ndarray, np.ndarray, np.ndarray]) -> RunImage:
    """A new :class:`RunImage` holding ``merged`` fragments, keeping shape and key."""
    pixels, rgba, depth = merged
    return RunImage.from_arrays(pixels, rgba, depth, template.width, template.height, key=template.key)


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
    if algorithm == "direct-send":
        return Schedule((size,), tuple(range(size)), skip_empty_pieces=True, trailing_round=False)
    if algorithm == "binary-swap":
        # The trailing 2 * (size - power) ranks fold pairwise, so the `power`
        # participants still hold contiguous runs of the visibility order.
        power = 1 << (size.bit_length() - 1)
        pairs = tuple((keeper, keeper + 1) for keeper in range(2 * power - size, size, 2))
        participants = tuple(range(2 * power - size)) + tuple(keeper for keeper, _ in pairs)
        return Schedule((2,) * (power.bit_length() - 1), participants, fold_pairs=pairs)
    if algorithm == "radix-k":
        radices = factor_radices(size) if radices is None else validate_radices(size, radices)
        return Schedule(tuple(radices), tuple(range(size)))
    raise ValueError(
        f"unknown compositing algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}"
    )


@dataclass(frozen=True)
class StreamStats:
    """Cohort-execution bookkeeping reported alongside a streamed composite.

    ``peak_live_images`` counts simultaneously-live *full rank images* (the
    memory contract bounds it by ``max_live_ranks + 1``); a running partial
    counts as one, retired pieces do not.  ``cohorts`` counts
    generate->merge->retire batches, and ``total_active_pixels`` accumulates
    every generated image's active-pixel count (the Eq. 5.5 ``avg(AP)``
    numerator, summed so the caller can average without holding the images).
    """

    max_live_ranks: int
    peak_live_images: int
    cohorts: int
    total_active_pixels: int


class _LiveLedger:
    """Counts live full rank images; the scheduler's memory-contract witness."""

    def __init__(self) -> None:
        self.live = 0
        self.peak = 0

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
    """Generate one rank's image, pin its visibility key, and count it live."""
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
    if image.key != position:
        image = RunImage.from_arrays(
            image.pixels, image.rgba, image.depth, width, height, key=position
        )
    ledger.acquire()
    return image


def _retire_piece(image: RunImage, start: int, stop: int, width: int, height: int) -> RunImage:
    """Copy an owned-interval slice out of a full image so the image can be freed.

    ``fragments`` returns views; retiring a view would pin the whole rank
    image's payload in memory, defeating the cohort contract.
    """
    pixels, rgba, depth = image.fragments(start, stop)
    return RunImage.from_arrays(
        pixels.copy(), rgba.copy(), depth.copy(), width, height, key=image.key
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
    fly), exchange locally, retire every member to a copy of its owned
    interval.  The remaining rounds run over the retired pieces -- whose total
    size is bounded by per-block pixel coverage, not by the rank count -- and
    one gather assembles the image at rank 0.

    A round-0 group wider than the budget cannot be live at once, and one
    wider than :data:`~repro.compositing.merge.PAIRWISE_FOLD_MAX_SETS` is
    cheaper as a sorted bag than as pairwise folds.  Either way the group's
    k-way exchange *is* a per-pixel left fold of its members in rank order,
    so it streams instead: chunks of at most ``max_live_ranks`` members are
    folded onto one running partial
    (:func:`~repro.compositing.merge.fold_bag_into_partial` -- the identical
    operation chain, split at chunk boundaries), the partial is sliced into
    the members' pieces, and the wire traffic is charged per link
    (``record_link_totals``; a rank posts ``k - 1`` messages, and enumerating
    ``P^2`` tuples at 16k ranks is off the table).  A schedule with a
    prologue keeps to blocks -- a pair's second member and a running partial
    would both sit on top of the budget.  Later wide rounds are
    ``merge_groups``' business.

    Traffic lands in the logical round it belongs to (``round_index``
    addressing), however the blocks interleave in wall-clock time.
    """
    num_pixels = width * height
    with_depth = mode == "depth"  # over-mode payloads drop the depth plane (the key stands in)
    budget = int(max_live_ranks)
    radices, participants = schedule.radices, schedule.participants
    count = len(participants)
    fold_partner = dict(schedule.fold_pairs)
    first_round = 1 if fold_partner else 0
    assembly_round = first_round + len(radices) + int(schedule.trailing_round)
    comm.ensure_rounds(assembly_round + 1)

    ledger = _LiveLedger()
    merges = total_active = cohorts = 0
    pieces: dict[int, RunImage] = {}
    owned: dict[int, tuple[int, int]] = {}

    def generate(index: int) -> RunImage:
        """Participant ``index``'s image, its prologue partner already folded in."""
        nonlocal merges, total_active
        rank = participants[index]
        image = _materialize(factory, rank, width, height, ledger)
        total_active += image.active_pixels
        if rank in fold_partner:
            sender = fold_partner[rank]
            partner = _materialize(factory, sender, width, height, ledger)
            total_active += partner.active_pixels
            payload, nbytes = partner.piece_message(0, num_pixels, with_depth=with_depth)
            comm.exchange([(sender, rank, payload, nbytes)], round_index=0)
            fragment_sets = [(rank, *image.fragments(0, num_pixels)), (sender, *payload[:3])]
            resolved, folded = merge_groups([(index, fragment_sets)], num_pixels, mode)
            merges += folded
            image = _replace_image(image, resolved[index])
            ledger.release()  # the folded pair partner retires immediately
        return image

    def exchange_round(store, intervals, members, round_index: int, stride: int) -> None:
        """Round ``round_index`` over ``members`` (full images or retired pieces).

        Every member cuts its interval ``radix`` ways, keeps piece ``digit``
        and sends each other piece to the group partner holding that digit.
        """
        nonlocal merges
        radix = radices[round_index]
        bounds = np.array([intervals[index] for index in members], dtype=np.int64)
        cuts = bounds[:, :1] + _partition_edges(bounds[:, 1] - bounds[:, 0], radix)
        sends, kept = [], {}
        for index, edges in zip(members, cuts):
            digit = index // stride % radix
            messages = store[index].piece_table(edges, with_depth=with_depth)
            kept[index] = messages[digit][0][:3]
            intervals[index] = (int(edges[digit]), int(edges[digit + 1]))
            for other in range(radix):
                if other == digit or (
                    schedule.skip_empty_pieces and edges[other] == edges[other + 1]
                ):
                    continue
                payload, nbytes = messages[other]
                partner = index + (other - digit) * stride
                sends.append((participants[index], participants[partner], payload, nbytes))
        delivered = comm.exchange(sends, round_index=first_round + round_index)
        # Ranks ascend with the digit inside a group, so they serve as fold keys.
        groups = []
        for index in members:
            rank = participants[index]
            received = [(source, *payload[:3]) for source, payload in delivered.get(rank, [])]
            groups.append((index, [(rank, *kept[index]), *received]))
        resolved, folded = merge_groups(groups, num_pixels, mode)
        merges += folded
        for index in members:
            store[index] = _replace_image(store[index], resolved[index])

    if radices and (
        radices[0] > PAIRWISE_FOLD_MAX_SETS or (radices[0] > budget and not fold_partner)
    ):
        radix = radices[0]
        edges = _partition_edges(num_pixels, radix)
        posted = edges[1:] > edges[:-1] if schedule.skip_empty_pieces else np.ones(radix, dtype=bool)
        sent_bytes = np.zeros(comm.size)
        sent_msgs = np.zeros(comm.size, dtype=np.int64)
        recv_bytes = np.zeros(comm.size)
        recv_msgs = np.zeros(comm.size, dtype=np.int64)
        for group_start in range(0, count, radix):
            group_ranks = np.asarray(participants[group_start : group_start + radix])
            partial = None
            for chunk_start in range(group_start, group_start + radix, budget):
                cohorts += 1
                members = range(chunk_start, min(chunk_start + budget, group_start + radix))
                images = [generate(index) for index in members]
                for index, image in zip(members, images):
                    nbytes = image.piece_wire_table(edges, with_depth)
                    mask = posted.copy()
                    mask[index - group_start] = False
                    sent_bytes[participants[index]] += float(nbytes[mask].sum())
                    sent_msgs[participants[index]] += int(np.count_nonzero(mask))
                    recv_bytes[group_ranks] += np.where(mask, nbytes, 0.0)
                    recv_msgs[group_ranks] += mask
                active = np.array([image.active_pixels for image in images], dtype=np.int64)
                first_fold = partial is None
                partial, folded = fold_bag_into_partial(
                    partial,
                    np.concatenate([image.pixels for image in images]),
                    np.concatenate([image.rgba for image in images]),
                    np.concatenate([image.depth for image in images]) if with_depth else None,
                    np.repeat(np.asarray(members, dtype=np.int64), active) if with_depth else None,
                    mode,
                )
                merges += folded
                if first_fold:
                    ledger.acquire()  # the running partial counts as one live image
                del images
                ledger.release(len(members))
            # The pieces tile the partial, so views of it pin nothing extra.
            pixels, rgba, depth, _ = partial
            bounds = np.searchsorted(pixels, edges)
            for digit in range(radix):
                lo, hi = int(bounds[digit]), int(bounds[digit + 1])
                index = group_start + digit
                pieces[index] = RunImage.from_arrays(
                    pixels[lo:hi],
                    rgba[lo:hi],
                    depth[lo:hi] if with_depth else np.zeros(hi - lo),
                    width,
                    height,
                    key=participants[index],
                )
                owned[index] = (int(edges[digit]), int(edges[digit + 1]))
            ledger.release()
        comm.record_link_totals(first_round, sent_bytes, sent_msgs, recv_bytes, recv_msgs)
        local_rounds = 1
    else:
        block, local_rounds = 1, 0
        while local_rounds < len(radices) and block * radices[local_rounds] <= budget:
            block *= radices[local_rounds]
            local_rounds += 1
        for block_start in range(0, count, block):
            cohorts += 1
            members = range(block_start, block_start + block)
            store = {index: generate(index) for index in members}
            intervals = dict.fromkeys(members, (0, num_pixels))
            stride = 1
            for round_index in range(local_rounds):
                exchange_round(store, intervals, members, round_index, stride)
                stride *= radices[round_index]
            for index in members:
                pieces[index] = _retire_piece(store[index], *intervals[index], width, height)
                owned[index] = intervals[index]
                ledger.release()
            del store

    stride = int(np.prod(radices[:local_rounds], dtype=np.int64))
    for round_index in range(local_rounds, len(radices)):
        exchange_round(pieces, owned, range(count), round_index, stride)
        stride *= radices[round_index]

    # Gather: the owned intervals tile [0, num_pixels), so concatenating the
    # pieces (sorted by pixel) yields the complete composited image.
    sends = []
    for index in range(1, count):
        start, stop = owned[index]
        if start < stop:
            payload, nbytes = pieces[index].piece_message(start, stop, with_depth=with_depth)
            sends.append((participants[index], 0, payload, nbytes))
    delivered = comm.exchange(sends, round_index=assembly_round)
    fragments = [pieces[0].fragments(*owned[0])]
    fragments += [payload[:3] for _, payload in delivered.get(0, [])]
    all_pixels = np.concatenate([piece[0] for piece in fragments])
    order = np.argsort(all_pixels, kind="stable")  # owned intervals are disjoint
    if with_depth:
        depth = np.concatenate([piece[2] for piece in fragments])[order]
    else:
        depth = np.zeros(len(all_pixels))  # over-mode depth lives in the keys
    final = RunImage.from_arrays(
        all_pixels[order],
        np.concatenate([piece[1] for piece in fragments])[order],
        depth,
        width,
        height,
    )
    return final, merges, StreamStats(budget, ledger.peak, cohorts, total_active)
