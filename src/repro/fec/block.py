"""Transmission-group framing on top of a raw erasure codec.

The paper's unit of loss recovery is the *transmission group* (TG): ``k``
data packets that share one FEC block of ``n = k + h`` packets.  This module
provides the sender- and receiver-side bookkeeping around the codec:

* :class:`BlockEncoder` slices an application byte-stream into fixed-size
  packets, pads the tail, groups packets into TGs and produces parities
  (eagerly or lazily — lazy models protocol NP, which only encodes parities
  that are actually requested; eager models pre-encoding, Section 5's
  throughput booster).
* :class:`BlockDecoder` is the per-TG receive buffer: it absorbs data and
  parity packets in any order, reports how many packets are still missing
  (the quantity carried in the paper's ``NAK(i, l)``), and reconstructs the
  group once a decodable set of packets has arrived.

Both sides work against the :class:`~repro.fec.code.ErasureCode` contract:
``codec`` may be a live instance or a registry name (``"rse"``, ``"xor"``,
``"rect"``, ``"lrc"``).  Non-systematic codes are supported: the sender
transmits the *coded* block prefix in place of the raw data packets, and
the receiver's decodability test defers to the codec's honest
:meth:`~repro.fec.code.ErasureCode.decodable_from` claim rather than a bare
``>= k`` count (these only differ for non-MDS codes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fec.code import DecodeError, ErasureCode
from repro.fec.registry import create_codec
from repro.fec.rse import RSECodec

__all__ = [
    "TransmissionGroup",
    "BlockEncoder",
    "BlockDecoder",
    "slice_stream",
    "join_stream",
]

#: Header layout used by the example applications: (tg_index, block_index).
#: Kept as a plain tuple to stay transport-agnostic.
PacketAddress = tuple[int, int]


def slice_stream(data: bytes, packet_size: int, k: int) -> list[list[bytes]]:
    """Slice ``data`` into transmission groups of ``k`` packets each.

    The final packet is zero-padded to ``packet_size`` and the final group is
    padded with all-zero packets so every group has exactly ``k`` members
    (real protocols carry the true length in a trailer; the examples store it
    out of band).
    """
    if packet_size < 1:
        raise ValueError(f"packet_size must be >= 1, got {packet_size}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    packets = [
        bytes(data[i: i + packet_size]).ljust(packet_size, b"\x00")
        for i in range(0, max(len(data), 1), packet_size)
    ]
    groups: list[list[bytes]] = []
    for start in range(0, len(packets), k):
        group = packets[start: start + k]
        while len(group) < k:
            group.append(b"\x00" * packet_size)
        groups.append(group)
    return groups


def join_stream(groups: list[list[bytes]], total_length: int) -> bytes:
    """Inverse of :func:`slice_stream` given the original byte length."""
    flat = b"".join(packet for group in groups for packet in group)
    return flat[:total_length]


@dataclass
class TransmissionGroup:
    """One sender-side TG: data packets plus (possibly partial) parities.

    For non-systematic codecs :attr:`coded` holds the transformed first
    ``k`` on-the-wire packets; :meth:`packet` serves from it when present.
    """

    index: int
    data: list[bytes]
    parities: list[bytes] = field(default_factory=list)
    coded: list[bytes] | None = None

    @property
    def k(self) -> int:
        return len(self.data)

    def packet(self, block_index: int) -> bytes:
        """Packet by FEC-block index (``0..k-1`` data, ``k..`` parity)."""
        if block_index < self.k:
            if self.coded is not None:
                return self.coded[block_index]
            return self.data[block_index]
        parity_index = block_index - self.k
        if parity_index >= len(self.parities):
            raise IndexError(
                f"parity {parity_index} of TG {self.index} not yet encoded"
            )
        return self.parities[parity_index]


class BlockEncoder:
    """Sender-side framing: byte-stream -> TGs -> parities on demand.

    Parameters
    ----------
    k, h:
        Transmission-group size and maximum parities per group.
    packet_size:
        Payload bytes per packet.
    codec:
        Optional shared :class:`~repro.fec.code.ErasureCode` instance or
        registry name; an :class:`RSECodec` is built if omitted.
    pre_encode:
        If true, all ``h`` parities of every group are produced at
        construction time (the paper's "pre-encoding" variant that removes
        encoding from the sender's critical path).  Non-systematic codecs
        always encode eagerly: their on-the-wire data prefix is itself a
        coding product.
    """

    def __init__(
        self,
        data: bytes,
        k: int,
        h: int,
        packet_size: int,
        codec: ErasureCode | str | None = None,
        pre_encode: bool = False,
    ):
        if isinstance(codec, str):
            codec = create_codec(codec, k, h)
        self.codec = codec if codec is not None else RSECodec(k, h)
        if self.codec.k != k or self.codec.h < h:
            raise ValueError(
                f"codec {self.codec!r} incompatible with k={k}, h={h}"
            )
        self.k = k
        self.h = h
        self.packet_size = packet_size
        self.total_length = len(data)
        self.groups = [
            TransmissionGroup(index=i, data=group)
            for i, group in enumerate(slice_stream(data, packet_size, k))
        ]
        if not self.codec.systematic:
            for group in self.groups:
                block = self.codec.encode_block(group.data)
                group.coded = block[:k]
                group.parities = block[k:k + h]
        elif pre_encode and h > 0:
            # all groups share the packet size, so the whole stream is one
            # batched (B, k, S) encode instead of a per-group Python loop
            all_parities = self.codec.encode_many(
                [group.data for group in self.groups]
            )
            for group, parities in zip(self.groups, all_parities):
                group.parities = parities

    def __len__(self) -> int:
        return len(self.groups)

    def data_packet(self, tg_index: int, block_index: int) -> bytes:
        """On-the-wire packet for block index ``0..k-1``.

        For systematic codecs this is the raw data packet; for
        non-systematic codecs it is the coded packet carrying that slot.
        """
        if not 0 <= block_index < self.k:
            raise IndexError(f"data index {block_index} outside 0..{self.k - 1}")
        return self.groups[tg_index].packet(block_index)

    def parity_packet(self, tg_index: int, parity_index: int) -> bytes:
        """Parity ``parity_index`` of group ``tg_index``, encoding lazily."""
        if not 0 <= parity_index < self.h:
            raise IndexError(
                f"parity index {parity_index} outside 0..{self.h - 1}"
            )
        group = self.groups[tg_index]
        self._ensure_parities(group, parity_index + 1)
        return group.parities[parity_index]

    def _ensure_parities(self, group: TransmissionGroup, count: int) -> None:
        if len(group.parities) >= count:
            return
        # Parity sets are computed in full on first demand: producing them
        # incrementally would redo the k multiplies per parity anyway.
        group.parities = self.codec.encode(group.data)[: self.h]


class BlockDecoder:
    """Receiver-side buffer for a single transmission group.

    Mirrors the FEC-receiver behaviour of Section 3.1 and protocol NP's
    receiver (Section 5.1): store whatever arrives, expose the number of
    packets still needed (``l`` in ``NAK(i, l)``) and decode once the codec
    claims the held pattern decodable (any ``k`` packets for MDS codes).
    """

    def __init__(self, k: int, codec: ErasureCode | str, h: int | None = None):
        if isinstance(codec, str):
            if h is None:
                raise ValueError(
                    "resolving a codec name needs the block's parity count: "
                    "pass h= alongside the registry name"
                )
            codec = create_codec(codec, k, h)
        if codec.k != k:
            raise ValueError(f"codec k={codec.k} does not match group k={k}")
        self.k = k
        self.codec = codec
        #: values are whatever the caller handed in — ``bytes`` payloads or
        #: zero-copy symbol views (:func:`repro.protocols.packets.payload_symbols`);
        #: the codec's ``decode`` accepts both and nothing here reads the data
        self.received: dict[int, bytes | np.ndarray] = {}
        self._decoded: list[bytes] | None = None
        self.duplicates = 0

    def add(self, block_index: int, payload: bytes | np.ndarray) -> bool:
        """Absorb one packet; returns True if the group is now decodable.

        Raises ``ValueError`` for an index outside the block (``0..n-1``)
        without storing it, so one stray packet cannot poison the buffer.
        """
        if not 0 <= block_index < self.codec.n:
            raise ValueError(
                f"packet index out of range for block length "
                f"n={self.codec.n}: {block_index}"
            )
        if self._decoded is not None:
            self.duplicates += 1
            return True
        if block_index in self.received:
            self.duplicates += 1
        else:
            self.received[block_index] = payload
        return self.decodable

    @property
    def decodable(self) -> bool:
        if self._decoded is not None:
            return True
        if len(self.received) < self.k:
            return False
        # add() keeps every held index in range, so an MDS code needs no
        # pattern check: any k of them decode
        return self.codec.is_mds or self.codec.decodable_from(self.received)

    @property
    def missing(self) -> int:
        """Packets still required to reconstruct the group (``l``).

        For non-MDS codecs this is a *lower bound*: a stalled pattern
        (``>= k`` packets held but structurally unrecoverable) still
        reports 1 so the receiver keeps soliciting — returning 0 there
        would silence the NAK loop and stall the transfer.  The true
        requirement surfaces as more packets arrive.
        """
        if self._decoded is not None:
            return 0
        if len(self.received) >= self.k:
            return 0 if self.decodable else 1
        return self.k - len(self.received)

    def reconstruct(self) -> list[bytes]:
        """Decode and return the ``k`` data packets (cached after first call)."""
        if self._decoded is None:
            if len(self.received) < self.k:
                raise DecodeError(
                    f"group incomplete: {len(self.received)}/{self.k} packets"
                )
            self._decoded = self.codec.decode(self.received)
        return self._decoded

    def decoding_work(self) -> int:
        """Number of data packets that decoding had to reconstruct.

        Non-systematic codecs rebuild the whole group from coded packets,
        so their work is always ``k`` once any decode happens.
        """
        if not self.codec.systematic:
            return self.k
        return sum(1 for i in range(self.k) if i not in self.received)
