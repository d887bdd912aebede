"""Unit tests for transmission-group framing (BlockEncoder/BlockDecoder)."""

import pytest

from repro.fec.block import (
    BlockDecoder,
    BlockEncoder,
    TransmissionGroup,
    join_stream,
    slice_stream,
)
from repro.fec.rse import DecodeError, RSECodec


class TestSliceStream:
    def test_exact_fit(self):
        groups = slice_stream(b"ab" * 6, packet_size=4, k=3)
        assert len(groups) == 1
        assert groups[0] == [b"abab", b"abab", b"abab"]

    def test_tail_padding_within_packet(self):
        groups = slice_stream(b"abcde", packet_size=4, k=2)
        assert groups[0][0] == b"abcd"
        assert groups[0][1] == b"e\x00\x00\x00"

    def test_group_padding_with_zero_packets(self):
        groups = slice_stream(b"x" * 4, packet_size=4, k=3)
        assert len(groups[0]) == 3
        assert groups[0][1] == b"\x00" * 4
        assert groups[0][2] == b"\x00" * 4

    def test_empty_payload_still_one_group(self):
        groups = slice_stream(b"", packet_size=8, k=2)
        assert len(groups) == 1
        assert all(p == b"\x00" * 8 for p in groups[0])

    def test_multiple_groups(self):
        groups = slice_stream(b"z" * 100, packet_size=10, k=3)
        assert len(groups) == 4  # 10 packets -> ceil(10/3) groups
        assert sum(len(g) for g in groups) == 12

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="packet_size"):
            slice_stream(b"x", 0, 3)
        with pytest.raises(ValueError, match="k must be"):
            slice_stream(b"x", 4, 0)

    def test_join_inverts_slice(self):
        payload = bytes(range(256)) * 3
        groups = slice_stream(payload, packet_size=17, k=4)
        assert join_stream(groups, len(payload)) == payload


class TestTransmissionGroup:
    def test_packet_indexing(self):
        group = TransmissionGroup(0, data=[b"a", b"b"], parities=[b"p"])
        assert group.packet(0) == b"a"
        assert group.packet(1) == b"b"
        assert group.packet(2) == b"p"
        assert group.k == 2

    def test_missing_parity_raises(self):
        group = TransmissionGroup(0, data=[b"a", b"b"])
        with pytest.raises(IndexError, match="not yet encoded"):
            group.packet(2)


class TestBlockEncoder:
    def test_groups_and_packets(self, rng):
        payload = rng.bytes(1000)
        encoder = BlockEncoder(payload, k=3, h=2, packet_size=100)
        assert len(encoder) == 4  # 10 packets -> 4 groups of 3
        assert encoder.data_packet(0, 0) == payload[:100]

    def test_lazy_parity_encoding(self, rng):
        encoder = BlockEncoder(rng.bytes(300), k=3, h=2, packet_size=100)
        assert encoder.groups[0].parities == []
        parity = encoder.parity_packet(0, 1)
        assert len(parity) == 100
        assert len(encoder.groups[0].parities) == 2  # all encoded on demand

    def test_pre_encode(self, rng):
        encoder = BlockEncoder(
            rng.bytes(300), k=3, h=2, packet_size=100, pre_encode=True
        )
        assert all(len(g.parities) == 2 for g in encoder.groups)

    def test_parity_consistency_with_codec(self, rng):
        payload = rng.bytes(300)
        codec = RSECodec(3, 2)
        encoder = BlockEncoder(payload, k=3, h=2, packet_size=100, codec=codec)
        direct = codec.encode([encoder.data_packet(0, i) for i in range(3)])
        assert [encoder.parity_packet(0, j) for j in range(2)] == direct

    def test_index_bounds(self, rng):
        encoder = BlockEncoder(rng.bytes(100), k=2, h=1, packet_size=100)
        with pytest.raises(IndexError):
            encoder.data_packet(0, 2)
        with pytest.raises(IndexError):
            encoder.parity_packet(0, 1)

    def test_incompatible_codec_rejected(self, rng):
        codec = RSECodec(4, 1)
        with pytest.raises(ValueError, match="incompatible"):
            BlockEncoder(rng.bytes(10), k=3, h=1, packet_size=10, codec=codec)


class TestBlockDecoder:
    @pytest.fixture
    def setup(self, rng):
        codec = RSECodec(4, 3)
        data = [rng.bytes(50) for _ in range(4)]
        parities = codec.encode(data)
        return codec, data, parities

    def test_decode_after_k_packets(self, setup):
        codec, data, parities = setup
        decoder = BlockDecoder(4, codec)
        assert decoder.missing == 4
        decoder.add(0, data[0])
        decoder.add(2, data[2])
        assert decoder.missing == 2
        assert not decoder.decodable
        decoder.add(4, parities[0])
        assert decoder.add(6, parities[2]) is True
        assert decoder.reconstruct() == data
        assert decoder.missing == 0

    def test_duplicates_counted(self, setup):
        codec, data, _ = setup
        decoder = BlockDecoder(4, codec)
        decoder.add(0, data[0])
        decoder.add(0, data[0])
        assert decoder.duplicates == 1

    def test_post_decode_packets_are_duplicates(self, setup):
        codec, data, parities = setup
        decoder = BlockDecoder(4, codec)
        for i in range(4):
            decoder.add(i, data[i])
        decoder.reconstruct()
        decoder.add(4, parities[0])
        assert decoder.duplicates == 1

    def test_premature_reconstruct_raises(self, setup):
        codec, data, _ = setup
        decoder = BlockDecoder(4, codec)
        decoder.add(0, data[0])
        with pytest.raises(DecodeError, match="incomplete"):
            decoder.reconstruct()

    def test_decoding_work_counts_missing_data(self, setup):
        codec, data, parities = setup
        decoder = BlockDecoder(4, codec)
        decoder.add(1, data[1])
        for j in range(3):
            decoder.add(4 + j, parities[j])
        assert decoder.decoding_work() == 3
        assert decoder.reconstruct() == data

    def test_mismatched_codec_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            BlockDecoder(5, RSECodec(4, 1))

    @pytest.mark.parametrize("stray", [-1, 6, 9])
    def test_stray_index_rejected_without_poisoning(self, rng, stray):
        # indices outside 0..n-1 (n = 6 here) are refused before they are
        # stored; a stored one made every later decodability test raise
        codec = RSECodec(4, 2)
        data = [rng.bytes(16) for _ in range(4)]
        parities = codec.encode(data)
        decoder = BlockDecoder(4, codec)
        decoder.add(0, data[0])
        with pytest.raises(ValueError, match="out of range"):
            decoder.add(stray, data[1])
        assert set(decoder.received) == {0}
        assert decoder.add(1, data[1]) is False
        assert decoder.add(4, parities[0]) is False
        assert decoder.missing == 1
        assert decoder.add(5, parities[1]) is True
        assert decoder.reconstruct() == data


# ----------------------------------------------------------------------
# framing against the codec *interface*: registry names, a non-MDS code,
# and a non-systematic code (the toy shift-XOR below)
# ----------------------------------------------------------------------
import numpy as np

from repro.fec.code import ErasureCode
from repro.fec.rect import RectangularCodec


class ShiftXORCodec(ErasureCode):
    """Non-systematic single-parity toy: wire slot ``i`` carries
    ``data[(i + 1) % k]`` and the parity is the XOR of all data."""

    name = "shift-xor"
    is_mds = True
    systematic = False

    def __init__(self, k, h=1, field=None):
        from repro.galois.field import GF256

        super().__init__(k, h, field=field or GF256)

    @classmethod
    def nearest_h(cls, k, h):
        return 1

    def coded_symbols(self, data):
        data = self._check_symbols(np.asarray(data), rows_axis=0)
        return np.roll(data, -1, axis=0)

    def encode_symbols(self, data):
        data = self._check_symbols(np.asarray(data), rows_axis=0)
        self.stats.packets_encoded += self.k
        self.stats.parities_produced += self.h
        self.stats.symbols_multiplied += data.size
        return np.bitwise_xor.reduce(data, axis=0)[None, :]

    def decode_symbols(self, rows):
        length = len(next(iter(rows.values())))
        data = {}
        for slot in range(self.k):
            if slot in rows:
                data[(slot + 1) % self.k] = rows[slot]
        missing = [i for i in range(self.k) if i not in data]
        if missing:
            if len(missing) > 1 or self.k not in rows:
                raise DecodeError(f"cannot repair data {missing}")
            acc = np.array(rows[self.k], copy=True)
            for i, symbols in data.items():
                acc ^= symbols
            data[missing[0]] = acc
            self.stats.packets_decoded += 1
            self.stats.symbols_multiplied += self.k * length
        return data


class TestRegistryNames:
    def test_encoder_accepts_codec_name(self):
        encoder = BlockEncoder(b"payload" * 10, k=7, h=1, packet_size=8,
                               codec="xor")
        assert encoder.codec.name == "xor"
        assert encoder.parity_packet(0, 0)

    def test_decoder_name_requires_h(self):
        with pytest.raises(ValueError, match="pass h= alongside"):
            BlockDecoder(7, "rse")
        decoder = BlockDecoder(7, "rse", h=3)
        assert decoder.codec.name == "rse"
        assert (decoder.codec.k, decoder.codec.h) == (7, 3)


class TestNonSystematicFraming:
    """BlockEncoder/Decoder with a codec whose wire prefix is not the data."""

    @pytest.fixture
    def rng(self):
        return np.random.default_rng(7)

    def test_wire_packets_are_coded_not_raw(self, rng):
        payload = rng.bytes(4 * 8)
        encoder = BlockEncoder(payload, k=4, h=1, packet_size=8,
                               codec=ShiftXORCodec(4))
        group = encoder.groups[0]
        assert group.coded is not None
        for i in range(4):
            assert encoder.data_packet(0, i) == group.coded[i]
            # the shifted slot carries a *different* group member
            assert encoder.data_packet(0, i) == group.data[(i + 1) % 4]

    def test_parities_eager_despite_lazy_default(self, rng):
        encoder = BlockEncoder(rng.bytes(32), k=4, h=1, packet_size=8,
                               codec=ShiftXORCodec(4))
        assert all(len(g.parities) == 1 for g in encoder.groups)

    def test_round_trip_with_one_wire_loss(self, rng):
        payload = rng.bytes(4 * 8)
        codec = ShiftXORCodec(4)
        encoder = BlockEncoder(payload, k=4, h=1, packet_size=8, codec=codec)
        decoder = BlockDecoder(4, codec)
        for i in range(4):
            if i == 2:  # lose one coded packet
                continue
            decoder.add(i, encoder.data_packet(0, i))
        assert not decoder.decodable
        assert decoder.add(4, encoder.parity_packet(0, 0))
        assert decoder.reconstruct() == encoder.groups[0].data
        # non-systematic: the whole group counts as reconstruction work
        assert decoder.decoding_work() == 4

    def test_missing_lower_bound(self, rng):
        codec = ShiftXORCodec(4)
        encoder = BlockEncoder(rng.bytes(32), k=4, h=1, packet_size=8,
                               codec=codec)
        decoder = BlockDecoder(4, codec)
        decoder.add(0, encoder.data_packet(0, 0))
        assert decoder.missing == 3


class TestNonMDSFraming:
    """BlockDecoder with the rectangular code: >= k is not enough."""

    @pytest.fixture
    def setup(self):
        rng = np.random.default_rng(11)
        codec = RectangularCodec(6, 5)  # 2x3 grid
        data = [rng.bytes(8) for _ in range(6)]
        block = codec.encode_block(data)
        return codec, data, block

    def test_unrecoverable_pattern_not_decodable(self, setup):
        codec, data, block = setup
        decoder = BlockDecoder(6, codec)
        # four-corner loss {0, 1, 3, 4}: seven packets held but peeling
        # stalls, so the honest claim is "not decodable"
        for i in range(codec.n):
            if i not in (0, 1, 3, 4):
                decoder.add(i, block[i])
        assert len(decoder.received) >= codec.k
        assert not decoder.decodable
        # stalled pattern: the NAK lower bound stays >= 1 so the receiver
        # keeps soliciting instead of going silent
        assert decoder.missing == 1
        with pytest.raises(DecodeError):
            decoder.reconstruct()

    def test_extra_packet_resolves_the_stall(self, setup):
        codec, data, block = setup
        decoder = BlockDecoder(6, codec)
        for i in range(codec.n):
            if i not in (0, 1, 3, 4):
                decoder.add(i, block[i])
        assert decoder.add(0, block[0])  # breaks the rectangle
        assert decoder.reconstruct() == data
        assert decoder.decoding_work() == 3
