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
compositing needs: ``send``/``recv`` and ``gather``, plus rank/size queries.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
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
        """Cost of moving ``num_bytes`` in ``messages`` messages over one link (elementwise on arrays)."""
        return self.latency_seconds * messages + num_bytes / self.bandwidth_bytes_per_second


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
    a time) instead address rounds explicitly via the ``round_index``
    arguments, which open the log out to the round named.

    The round log is one dense ``(4, size)`` array per round, indexed by
    rank: sent bytes, sent messages, received bytes, received messages.
    Every message adds into it, whether it came through
    :meth:`RankCommunicator.send`, :meth:`exchange` or
    :meth:`record_link_totals`.
    """

    def __init__(self, size: int, network: NetworkModel | None = None) -> None:
        if size < 1:
            raise ValueError("communicator size must be positive")
        self.size = int(size)
        self.network = network or NetworkModel()
        self._mailboxes: dict[tuple[int, int, int], deque] = defaultdict(deque)
        self._rounds: list[np.ndarray] = [np.zeros((4, self.size))]

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
        nbytes = _payload_bytes(payload)
        log = self._rounds[-1]
        log[0, source] += nbytes
        log[1, source] += 1
        log[2, dest] += nbytes
        log[3, dest] += 1

    def _round_log(self, round_index: int | None) -> np.ndarray:
        if round_index is None:
            return self._rounds[-1]
        if round_index < 0:
            raise IndexError(f"round index {round_index} out of range")
        while len(self._rounds) <= round_index:
            self.next_round()
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
        sources, dests, wire = [], [], []
        for send in sends:
            source, dest, payload = send[0], send[1], send[2]
            if not 0 <= source < self.size:
                raise IndexError(f"source rank {source} out of range")
            if not 0 <= dest < self.size:
                raise IndexError(f"destination rank {dest} out of range")
            sources.append(source)
            dests.append(dest)
            wire.append(float(send[3]) if len(send) > 3 else _payload_bytes(payload))
            delivered[dest].append((source, payload))
        # np.add.at adds in posting order, as one send after another would.
        sources, dests = np.array(sources, dtype=np.int64), np.array(dests, dtype=np.int64)
        np.add.at(log[0], sources, wire)
        np.add.at(log[1], sources, 1.0)
        np.add.at(log[2], dests, wire)
        np.add.at(log[3], dests, 1.0)
        return dict(delivered)

    def record_link_totals(
        self,
        round_index: int,
        sent_bytes: np.ndarray,
        sent_messages: np.ndarray,
        recv_bytes: np.ndarray,
        recv_messages: np.ndarray,
    ) -> None:
        """Add pre-aggregated per-rank link totals to one round's log.

        The compositing driver streams a wide exchange group by accumulating
        each cohort's traffic into dense per-rank arrays (one slot per link
        direction) instead of materializing the message matrix; this adds
        those sums to the round's log in one step.  All four arrays must have
        shape ``(size,)``, indexed by rank.
        """
        arrays = (sent_bytes, sent_messages, recv_bytes, recv_messages)
        if any(np.shape(array) != (self.size,) for array in arrays):
            raise ValueError(f"link totals must be dense arrays of shape ({self.size},)")
        log = self._round_log(round_index)
        log += arrays

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
        self._rounds.append(np.zeros((4, self.size)))

    def total_bytes(self) -> float:
        """All bytes sent in the lifetime of the communicator."""
        return float(sum(log[0].sum() for log in self._rounds))

    def total_messages(self) -> int:
        """All messages sent in the lifetime of the communicator."""
        return int(sum(log[1].sum() for log in self._rounds))

    def _busiest_link_seconds(self) -> list[float]:
        """Per round, the busiest link direction's communication time.

        Messages converging on one link direction serialize there, so the
        round's critical path is the maximum over ranks and directions of
        ``NetworkModel.transfer_seconds(bytes, messages)``.
        """
        return [
            float(self.network.transfer_seconds(log[0::2], log[1::2]).max())
            for log in self._rounds
        ]

    def estimate_time(self) -> float:
        """Network-model estimate of the communication critical path."""
        return float(sum(self._busiest_link_seconds()))

    def round_summaries(self) -> list[dict]:
        """Compact per-round traffic summary (the round-log artifact format).

        One dict per round with the aggregate ``bytes`` and ``messages``,
        the number of ``active_links`` (ranks whose link carried traffic in
        either direction), and ``busiest_link_seconds`` -- the round's
        contention-aware critical path, whose sum over rounds is
        :meth:`estimate_time`.  Small enough to serialize at 16k ranks, where
        the full :meth:`round_link_totals` log is not.
        """
        return [
            {
                "bytes": float(log[0].sum()),
                "messages": int(log[1].sum()),
                "active_links": int(np.count_nonzero(log.any(axis=0))),
                "busiest_link_seconds": busiest,
            }
            for log, busiest in zip(self._rounds, self._busiest_link_seconds())
        ]

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
            ranks = np.flatnonzero(log.any(axis=0))
            totals.append(
                {
                    rank: (sent, int(sent_messages), received, int(received_messages))
                    for rank, (sent, sent_messages, received, received_messages) in zip(
                        ranks.tolist(), log[:, ranks].T.tolist()
                    )
                }
            )
        return totals


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
