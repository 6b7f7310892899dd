"""Simulated MPI communicator with message-volume accounting.

All ranks live in one Python process.  Point-to-point sends are immediate
(the payload is stored in the receiver's mailbox), and every transfer is
logged so that a :class:`NetworkModel` can convert the communication pattern
into an estimated wall-clock time.  That estimate is what the compositing
experiments (Section 5.6) use as the "communication" component of their
measured compositing time, alongside the real wall-clock cost of the local
blending arithmetic.

Accounting is link-occupancy aware: every rank owns one full-duplex link, so
concurrent messages *sent by* one rank serialize on its egress side and
concurrent messages *arriving at* one rank serialize on its ingress side.
Within a round the busiest link direction is the critical path; rounds are
sequential.  This is the contention term the Eq. 5.5 communication component
picks up at large rank counts (e.g. direct-send funnelling P-1 messages into
each destination inside a single round).

The interface intentionally mirrors the small subset of mpi4py that IceT-style
compositing needs: ``send``/``recv``, ``barrier``, ``gather``, plus rank/size
queries.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["NetworkModel", "SimulatedCommunicator", "RankCommunicator"]


@dataclass(frozen=True)
class NetworkModel:
    """Simple latency + bandwidth network cost model.

    ``time = latency_seconds * messages + bytes / bandwidth_bytes_per_second``
    evaluated over the critical path returned by
    :meth:`SimulatedCommunicator.estimate_time` (per-round maxima, since
    exchanges within a compositing round proceed concurrently across links).

    The per-round critical path covers both sides of every link: messages
    converging on one rank in the same round serialize there, even when their
    senders are distinct.

    Defaults approximate a commodity cluster interconnect (a few microseconds
    of latency, a few GB/s per link).
    """

    latency_seconds: float = 5e-6
    bandwidth_bytes_per_second: float = 4e9

    def transfer_seconds(self, num_bytes: float, messages: int = 1) -> float:
        """Cost of moving ``num_bytes`` in ``messages`` messages over one link."""
        return self.latency_seconds * messages + num_bytes / self.bandwidth_bytes_per_second


@dataclass
class _MessageLog:
    """Per-round, per-link-direction accounting of simulated traffic."""

    bytes_by_rank: dict[int, float] = field(default_factory=lambda: defaultdict(float))
    messages_by_rank: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    recv_bytes_by_rank: dict[int, float] = field(default_factory=lambda: defaultdict(float))
    recv_messages_by_rank: dict[int, int] = field(default_factory=lambda: defaultdict(int))

    def record(self, source: int, dest: int, num_bytes: float) -> None:
        self.bytes_by_rank[source] += num_bytes
        self.messages_by_rank[source] += 1
        self.recv_bytes_by_rank[dest] += num_bytes
        self.recv_messages_by_rank[dest] += 1

    def critical_seconds(self, model: NetworkModel) -> float:
        """Busiest link direction's communication time for this round."""
        directions = (
            (self.bytes_by_rank, self.messages_by_rank),
            (self.recv_bytes_by_rank, self.recv_messages_by_rank),
        )
        busiest = 0.0
        for byte_map, msg_map in directions:
            for rank, num_bytes in byte_map.items():
                seconds = model.transfer_seconds(num_bytes, msg_map[rank])
                if seconds > busiest:
                    busiest = seconds
        return busiest


def _payload_bytes(payload: Any) -> float:
    """Estimated wire size of a payload (numpy arrays dominate in practice)."""
    if isinstance(payload, np.ndarray):
        return float(payload.nbytes)
    if isinstance(payload, (tuple, list)):
        return float(sum(_payload_bytes(item) for item in payload))
    if isinstance(payload, dict):
        return float(sum(_payload_bytes(value) for value in payload.values()))
    if isinstance(payload, (bytes, bytearray)):
        return float(len(payload))
    return 64.0  # scalars / small metadata


class SimulatedCommunicator:
    """A world of ``size`` simulated ranks sharing one process.

    Rank-local code receives a :class:`RankCommunicator` view; the world
    object tracks mailboxes and traffic.  Compositing rounds are delimited
    with :meth:`next_round` so the network estimate can treat intra-round
    exchanges as concurrent and rounds as sequential.  Streaming drivers that
    revisit rounds out of order (cohort schedulers process one rank block at
    a time) instead pre-open the log with :meth:`ensure_rounds` and address
    rounds explicitly via the ``round_index`` arguments.
    """

    def __init__(self, size: int, network: NetworkModel | None = None) -> None:
        if size < 1:
            raise ValueError("communicator size must be positive")
        self.size = int(size)
        self.network = network or NetworkModel()
        self._mailboxes: dict[tuple[int, int, int], deque] = defaultdict(deque)
        self._rounds: list[_MessageLog] = [_MessageLog()]

    # -- rank views -----------------------------------------------------------------
    def rank(self, rank: int) -> "RankCommunicator":
        """The communicator view for one rank."""
        if not 0 <= rank < self.size:
            raise IndexError(f"rank {rank} out of range for size {self.size}")
        return RankCommunicator(self, rank)

    def ranks(self) -> list["RankCommunicator"]:
        """Views for every rank."""
        return [self.rank(index) for index in range(self.size)]

    # -- messaging ------------------------------------------------------------------
    def _send(self, source: int, dest: int, tag: int, payload: Any) -> None:
        if not 0 <= dest < self.size:
            raise IndexError(f"destination rank {dest} out of range")
        self._mailboxes[(source, dest, tag)].append(payload)
        self._rounds[-1].record(source, dest, _payload_bytes(payload))

    def _round_log(self, round_index: int | None) -> _MessageLog:
        if round_index is None:
            return self._rounds[-1]
        if round_index < 0:
            raise IndexError(f"round index {round_index} out of range")
        self.ensure_rounds(round_index + 1)
        return self._rounds[round_index]

    def exchange(
        self, sends: Any, round_index: int | None = None
    ) -> dict[int, list[tuple[int, Any]]]:
        """One batched round of array-valued exchanges (the fast compositors' API).

        ``sends`` is an iterable of ``(source, dest, payload)`` or
        ``(source, dest, payload, wire_bytes)`` tuples, all belonging to one
        communication round -- the *current* round by default, or the round
        named by ``round_index`` (cohort schedulers revisit earlier rounds as
        later rank blocks stream through).  Every message is recorded exactly
        as an individual :meth:`RankCommunicator.send` would be -- same
        per-link byte and message counts on both the egress and ingress side,
        so the per-round critical-path accounting of :meth:`estimate_time` is
        preserved -- but the payloads bypass the per-message mailboxes: the
        call returns ``{dest: [(source, payload), ...]}`` with each
        destination's messages in posting order, the way an MPI all-to-all
        hands a rank its receive buffer in one operation.

        ``wire_bytes`` overrides the payload-size estimate, letting senders
        charge the network for an encoded wire format (e.g. run-length
        compressed sub-images) while handing over zero-copy array views.
        """
        log = self._round_log(round_index)
        delivered: dict[int, list[tuple[int, Any]]] = defaultdict(list)
        for send in sends:
            source, dest, payload = send[0], send[1], send[2]
            if not 0 <= source < self.size:
                raise IndexError(f"source rank {source} out of range")
            if not 0 <= dest < self.size:
                raise IndexError(f"destination rank {dest} out of range")
            nbytes = float(send[3]) if len(send) > 3 else _payload_bytes(payload)
            log.record(source, dest, nbytes)
            delivered[dest].append((source, payload))
        return dict(delivered)

    def record_link_totals(
        self,
        round_index: int,
        sent_bytes: np.ndarray,
        sent_messages: np.ndarray,
        recv_bytes: np.ndarray,
        recv_messages: np.ndarray,
    ) -> None:
        """Fold pre-aggregated per-rank link totals into one round's log.

        The compositing driver streams a wide exchange group by accumulating
        each cohort's traffic into dense per-rank arrays (one slot per link
        direction) instead of materializing the message matrix; this adds
        those sums straight into the round's per-link maps.  All four arrays
        must have shape ``(size,)``, indexed by rank.
        """
        arrays = (sent_bytes, sent_messages, recv_bytes, recv_messages)
        if any(np.asarray(array).shape != (self.size,) for array in arrays):
            raise ValueError(f"link totals must be dense arrays of shape ({self.size},)")
        log = self._round_log(round_index)
        for byte_array, msg_array, byte_map, msg_map in (
            (sent_bytes, sent_messages, log.bytes_by_rank, log.messages_by_rank),
            (recv_bytes, recv_messages, log.recv_bytes_by_rank, log.recv_messages_by_rank),
        ):
            byte_array = np.asarray(byte_array, dtype=np.float64)
            msg_array = np.asarray(msg_array, dtype=np.int64)
            for rank in np.flatnonzero((byte_array != 0.0) | (msg_array != 0)).tolist():
                byte_map[rank] += float(byte_array[rank])
                msg_map[rank] += int(msg_array[rank])

    def _recv(self, source: int, dest: int, tag: int) -> Any:
        queue = self._mailboxes.get((source, dest, tag))
        if not queue:
            raise RuntimeError(
                f"rank {dest} has no pending message from rank {source} with tag {tag}"
            )
        return queue.popleft()

    # -- accounting -------------------------------------------------------------------
    def next_round(self) -> None:
        """Mark the end of a communication round (rounds execute sequentially)."""
        self._rounds.append(_MessageLog())

    def ensure_rounds(self, count: int) -> None:
        """Open the round log out to ``count`` rounds (idempotent).

        Streaming schedulers know the exchange schedule up front but fill it
        block by block; pre-opening the rounds lets them record traffic into
        the same round from many cohorts while :meth:`estimate_time` keeps
        treating each round as one concurrent step.
        """
        while len(self._rounds) < count:
            self._rounds.append(_MessageLog())

    def total_bytes(self) -> float:
        """All bytes sent in the lifetime of the communicator."""
        return float(
            sum(sum(log.bytes_by_rank.values()) for log in self._rounds)
        )

    def total_messages(self) -> int:
        """All messages sent in the lifetime of the communicator."""
        return int(sum(sum(log.messages_by_rank.values()) for log in self._rounds))

    def estimate_time(self) -> float:
        """Network-model estimate of the communication critical path."""
        return float(sum(log.critical_seconds(self.network) for log in self._rounds))

    def round_totals(self) -> list[dict[int, tuple[float, int]]]:
        """Per-round ``{rank: (bytes_sent, messages_sent)}`` -- the egress log.

        One entry per communication round (including rounds with no traffic).
        This is the send-side half of the accounting; the contention-aware
        critical path of :meth:`estimate_time` also weighs the receive side,
        which :meth:`round_link_totals` exposes in full.
        """
        return [
            {
                rank: (float(log.bytes_by_rank[rank]), int(log.messages_by_rank[rank]))
                for rank in log.bytes_by_rank
            }
            for log in self._rounds
        ]

    def round_summaries(self) -> list[dict]:
        """Compact per-round traffic summary (the round-log artifact format).

        One dict per round with the aggregate ``bytes`` and ``messages``,
        the number of ``active_links`` (ranks whose link carried traffic in
        either direction), and ``busiest_link_seconds`` -- the round's
        contention-aware critical path, whose sum over rounds is
        :meth:`estimate_time`.  Small enough to serialize at 16k ranks, where
        the full :meth:`round_link_totals` log is not.
        """
        summaries = []
        for log in self._rounds:
            summaries.append(
                {
                    "bytes": float(sum(log.bytes_by_rank.values())),
                    "messages": int(sum(log.messages_by_rank.values())),
                    "active_links": len(set(log.bytes_by_rank) | set(log.recv_bytes_by_rank)),
                    "busiest_link_seconds": float(log.critical_seconds(self.network)),
                }
            )
        return summaries

    def round_link_totals(self) -> list[dict[int, tuple[float, int, float, int]]]:
        """Per-round ``{rank: (sent_bytes, sent_msgs, recv_bytes, recv_msgs)}``.

        The full link-occupancy log: a rank appears if either direction of
        its link carried traffic in that round.  Tests recompute
        :meth:`estimate_time` by hand from this -- per round, the critical
        path is the maximum over ranks and directions of
        ``NetworkModel.transfer_seconds(bytes, messages)``; rounds sum.
        """
        totals: list[dict[int, tuple[float, int, float, int]]] = []
        for log in self._rounds:
            ranks = set(log.bytes_by_rank) | set(log.recv_bytes_by_rank)
            totals.append(
                {
                    rank: (
                        float(log.bytes_by_rank.get(rank, 0.0)),
                        int(log.messages_by_rank.get(rank, 0)),
                        float(log.recv_bytes_by_rank.get(rank, 0.0)),
                        int(log.recv_messages_by_rank.get(rank, 0)),
                    )
                    for rank in sorted(ranks)
                }
            )
        return totals

    def reset_accounting(self) -> None:
        """Clear traffic logs (mailboxes are left untouched)."""
        self._rounds = [_MessageLog()]


@dataclass
class RankCommunicator:
    """The view of a :class:`SimulatedCommunicator` seen by one rank."""

    world: SimulatedCommunicator
    rank: int

    @property
    def size(self) -> int:
        return self.world.size

    # -- point to point ------------------------------------------------------------
    def send(self, dest: int, payload: Any, tag: int = 0) -> None:
        """Send ``payload`` to ``dest`` (returns immediately)."""
        self.world._send(self.rank, dest, tag, payload)

    def recv(self, source: int, tag: int = 0) -> Any:
        """Receive the next payload sent by ``source`` with ``tag``."""
        return self.world._recv(source, self.rank, tag)

    # -- collectives (driver-side helpers) ----------------------------------------------
    def barrier(self) -> None:
        """No-op in the single-process simulation (kept for interface parity)."""

    def gather(self, payload: Any, root: int = 0, tag: int = 99) -> list[Any] | None:
        """Send ``payload`` to ``root``; the root returns the list of payloads.

        Because all ranks run in one process, the driver calls ``gather`` on
        each rank in turn; non-root ranks return ``None``.
        """
        if self.rank != root:
            self.world._send(self.rank, root, tag, payload)
            return None
        gathered = []
        for source in range(self.size):
            if source == root:
                gathered.append(payload)
            else:
                gathered.append(self.world._recv(source, root, tag))
        return gathered
