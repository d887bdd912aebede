"""Integrated FEC 1 — the feedback-free parity-tail scheme (Section 4.2).

The lightest of the paper's integrated variants: the sender streams the
``k`` data packets of a group followed by a continuous tail of parities,
all at ``Delta`` spacing; a receiver simply *leaves the multicast group*
the moment it holds ``k`` packets.  No NAKs, no polls — "no feedback is
needed for loss recovery and there is no unnecessary delivery and
reception of parity packets, provided that the time needed to depart from
the group is smaller than the packet inter-arrival time".

What stops the parity tail?  In a real deployment, multicast routing
prune messages: when the last receiver leaves the group, the sender's
first hop prunes and the sender notices the group is empty.  The
simulation models exactly that with a :class:`GroupMembership` object —
receivers deregister, and once the group size for TG ``i`` hits zero the
sender advances to TG ``i+1``.  Membership signalling travels with the
configured one-way latency, so a slow prune costs extra parities, exactly
as the paper's proviso warns.
"""

from __future__ import annotations

import numpy as np

from repro.fec.block import BlockDecoder, BlockEncoder
from repro.fec.code import ErasureCode
from repro.fec.rse import RSECodec
from repro.protocols.np_protocol import NPConfig, ReceiverStats, SenderStats
from repro.protocols.packets import (
    DataPacket,
    ParityPacket,
    checksum_of,
    payload_intact,
)
from repro.sim.engine import EventHandle, Simulator
from repro.sim.network import MulticastNetwork

__all__ = ["GroupMembership", "Fec1Sender", "Fec1Receiver"]


class GroupMembership:
    """Per-TG multicast membership, standing in for IGMP joins/prunes.

    Receivers are members of every group's session by default and
    :meth:`leave` once done; the sender polls :meth:`is_empty` before each
    parity transmission.  Leave signalling is delayed by the network
    latency (modelled by the caller scheduling the leave event).
    """

    def __init__(self, n_receivers: int, n_groups: int):
        self._members = [set(range(n_receivers)) for _ in range(n_groups)]
        self.leaves_signalled = 0

    def leave(self, tg: int, receiver_id: int) -> None:
        self._members[tg].discard(receiver_id)
        self.leaves_signalled += 1

    def member_count(self, tg: int) -> int:
        return len(self._members[tg])

    def is_empty(self, tg: int) -> bool:
        return not self._members[tg]


class Fec1Sender:
    """Sender: data burst then parity tail until the group empties."""

    def __init__(
        self,
        sim: Simulator,
        network: MulticastNetwork,
        data: bytes,
        config: NPConfig = NPConfig(),
        codec: ErasureCode | None = None,
        membership: GroupMembership | None = None,
    ):
        self.sim = sim
        self.network = network
        self.config = config
        self.codec = codec if codec is not None else RSECodec(config.k, config.h)
        self.encoder = BlockEncoder(
            data, config.k, config.h, config.packet_size,
            codec=self.codec, pre_encode=config.pre_encode,
        )
        self.membership = (
            membership
            if membership is not None
            else GroupMembership(network.n_receivers, len(self.encoder))
        )
        self.stats = SenderStats()
        network.attach_sender(lambda packet: None)  # scheme is feedback-free

        self._current_tg = 0
        self._next_index = 0  # block index within the current TG
        self._generation = 0  # ARQ fallback generation on parity exhaustion
        self._tick_handle: EventHandle | None = None

    @property
    def n_groups(self) -> int:
        return len(self.encoder)

    @property
    def total_data_packets(self) -> int:
        return self.n_groups * self.config.k

    @property
    def finished(self) -> bool:
        return self._current_tg >= self.n_groups

    def start(self) -> None:
        self._arm_tick(0.0)

    def _arm_tick(self, delay: float) -> None:
        if self._tick_handle is None and not self.finished:
            self._tick_handle = self.sim.schedule(delay, self._tick)

    def _tick(self) -> None:
        self._tick_handle = None
        if self.finished:
            return
        tg = self._current_tg
        if self._next_index >= self.config.k and self.membership.is_empty(tg):
            # every receiver has left: prune, advance to the next group
            self._current_tg += 1
            self._next_index = 0
            self._generation = 0
            self._arm_tick(0.0)
            return

        index = self._next_index
        config = self.config
        if index < config.k:
            payload = self.encoder.data_packet(tg, index)
            self.network.multicast(
                DataPacket(tg, index, payload, 0, checksum_of(payload)),
                kind="data",
            )
            self.stats.data_sent += 1
        elif index < config.k + config.h:
            payload = self.encoder.parity_packet(tg, index - config.k)
            self.network.multicast(
                ParityPacket(tg, index, payload, checksum_of(payload)),
                kind="parity",
            )
            self.stats.parity_sent += 1
        else:
            # parity tail exhausted: cycle originals as a new generation
            # (the paper assumes h large enough; see DESIGN.md D2)
            self._generation = 1 + (index - config.k - config.h) // config.k
            data_index = (index - config.k - config.h) % config.k
            payload = self.encoder.data_packet(tg, data_index)
            self.network.multicast(
                DataPacket(
                    tg, data_index, payload, self._generation,
                    checksum_of(payload),
                ),
                kind="retransmission",
            )
            self.stats.retransmissions_sent += 1
        self._next_index += 1
        self._arm_tick(config.packet_interval)


class Fec1Receiver:
    """Receiver: buffer, decode at ``k`` packets, leave the group."""

    def __init__(
        self,
        sim: Simulator,
        network: MulticastNetwork,
        n_groups: int,
        config: NPConfig = NPConfig(),
        codec: ErasureCode | None = None,
        membership: GroupMembership | None = None,
        rng: np.random.Generator | None = None,
        on_complete=None,
    ):
        if membership is None:
            raise ValueError("Fec1Receiver needs the shared GroupMembership")
        self.sim = sim
        self.network = network
        self.config = config
        self.n_groups = n_groups
        self.codec = codec if codec is not None else RSECodec(config.k, config.h)
        self.membership = membership
        self.on_complete = on_complete
        self.stats = ReceiverStats()
        self.receiver_id = network.attach_receiver(self.on_packet)
        self._decoders: dict[int, BlockDecoder] = {}
        self._delivered: dict[int, list[bytes]] = {}

    @property
    def complete(self) -> bool:
        return len(self._delivered) == self.n_groups

    def delivered_data(self, total_length: int | None = None) -> bytes:
        if not self.complete:
            missing = sorted(set(range(self.n_groups)) - set(self._delivered))
            raise RuntimeError(f"transfer incomplete; missing groups {missing}")
        blob = b"".join(
            packet
            for tg in range(self.n_groups)
            for packet in self._delivered[tg]
        )
        return blob if total_length is None else blob[:total_length]

    def on_packet(self, packet) -> None:
        if not isinstance(packet, (DataPacket, ParityPacket)):
            return
        self.stats.packets_received += 1
        if not payload_intact(packet):
            self.stats.corrupt_discarded += 1
            return
        tg = packet.tg
        if tg in self._delivered:
            self.stats.duplicates += 1  # packets that beat our prune
            return
        decoder = self._decoders.setdefault(
            tg, BlockDecoder(self.config.k, self.codec)
        )
        before = len(decoder.received)
        decodable = decoder.add(packet.index, packet.payload)
        if len(decoder.received) == before:
            self.stats.duplicates += 1
            return
        self.stats.last_progress_time = self.sim.now
        if decodable:
            self.stats.packets_reconstructed += decoder.decoding_work()
            self._delivered[tg] = decoder.reconstruct()
            self.stats.groups_decoded += 1
            del self._decoders[tg]
            # prune propagates one network latency upstream
            self.sim.schedule(
                self.network.latency,
                lambda tg=tg: self.membership.leave(tg, self.receiver_id),
            )
            if self.complete:
                self.stats.completion_time = self.sim.now
                if self.on_complete is not None:
                    self.on_complete(self.receiver_id)
