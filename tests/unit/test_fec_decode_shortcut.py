"""The loss-free decode shortcut, differentially against the general path.

A systematic codec holding every data index ``0..k-1`` returns the data
packets from :meth:`~repro.fec.code.ErasureCode.decode` without a symbol
round-trip.  :func:`general_decode` below is the oracle: the general path
as ``decode`` ran it for every pattern before the shortcut existed (every
held packet to symbols, equal symbol counts, ``decode_symbols``, data rows
back to bytes).  For every registered systematic codec over GF(2^4),
GF(2^8) and GF(2^16), with ``bytes`` and symbol-array inputs, the shortcut
must return the oracle's bytes, charge the oracle's stats and raise the
oracle's exception on the same bad input.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.fec.code import DecodeError, ErasureCode
from repro.fec.registry import create_codec
from repro.fec.rse import InverseCache
from repro.galois.field import GF16, GF256, GF65536, GaloisField

K = 4
#: registry name -> a parity count its geometry accepts at k = 4
PARITIES = {"rse": 3, "xor": 1, "rect": 4, "lrc": 3}
FIELDS = {4: GF16, 8: GF256, 16: GF65536}
SYMBOLS = 12  # per packet; even, so every field's byte form is whole


def make_codec(name: str, field: GaloisField) -> ErasureCode:
    extra = {"inverse_cache": InverseCache()} if name == "rse" else {}
    return create_codec(name, K, PARITIES[name], field=field, **extra)


def general_decode(codec: ErasureCode, received: dict) -> list[bytes]:
    """``ErasureCode.decode`` with every pattern on the general path."""
    if not received:
        raise DecodeError("no packets received")
    indices = sorted(received)
    if indices[0] < 0 or indices[-1] >= codec.n:
        raise ValueError(
            f"packet index out of range for block length n={codec.n}: {indices}"
        )
    if len(indices) < codec.k:
        raise DecodeError(
            f"need at least k={codec.k} packets to decode, got {len(indices)}"
        )
    rows = {i: codec._to_symbols(p) for i, p in received.items()}
    if len({row.shape[0] for row in rows.values()}) != 1:
        raise ValueError("received packets have inconsistent lengths")
    decoded = codec.decode_symbols(rows)
    return [codec._to_bytes(decoded[i]) for i in range(codec.k)]


def block(name: str, m: int, as_symbols: bool, seed: int = 0) -> list:
    """All ``n`` packets of one encoded block, as bytes or symbol arrays."""
    field = FIELDS[m]
    codec = make_codec(name, field)
    data = np.random.default_rng(seed).integers(
        0, field.order, size=(K, SYMBOLS)
    ).astype(field.dtype)
    rows = list(codec.block_symbols(data))
    if as_symbols:
        return rows
    return [codec._to_bytes(row) for row in rows]


def loss_free_patterns(n: int) -> list[tuple[int, ...]]:
    """Every data index, plus each subset of the parities."""
    parities = range(K, n)
    return [
        tuple(range(K)) + extra
        for size in range(len(parities) + 1)
        for extra in itertools.combinations(parities, size)
    ]


def both_paths(name: str, m: int, received: dict):
    """(outcome, stats) of the shortcut and of the oracle on fresh codecs.

    An outcome is the decoded packets or ``(exception type, message)``.
    """
    results = []
    for decode in (ErasureCode.decode, general_decode):
        codec = make_codec(name, FIELDS[m])
        try:
            outcome = decode(codec, dict(received))
        except ValueError as error:
            outcome = (type(error), str(error))
        results.append((outcome, vars(codec.stats).copy()))
    return results


CASES = [
    (name, m, as_symbols)
    for name in sorted(PARITIES)
    for m in sorted(FIELDS)
    for as_symbols in (False, True)
]


def case_id(case) -> str:
    name, m, as_symbols = case
    return f"{name}-gf{m}-{'symbols' if as_symbols else 'bytes'}"


@pytest.mark.parametrize("name,m,as_symbols", CASES, ids=map(case_id, CASES))
def test_loss_free_patterns_match_general_path(name, m, as_symbols):
    packets = block(name, m, as_symbols)
    for pattern in loss_free_patterns(len(packets)):
        received = {i: packets[i] for i in pattern}
        (fast, fast_stats), (oracle, oracle_stats) = both_paths(name, m, received)
        assert all(type(packet) is bytes for packet in fast)
        assert fast == oracle, pattern
        assert fast_stats == oracle_stats, pattern


@pytest.mark.parametrize("name,m,as_symbols", CASES, ids=map(case_id, CASES))
def test_loss_free_decode_skips_the_symbol_path(name, m, as_symbols, monkeypatch):
    packets = block(name, m, as_symbols)
    codec = make_codec(name, FIELDS[m])

    def no_symbol_decode(rows):
        raise AssertionError("a loss-free decode entered decode_symbols")

    monkeypatch.setattr(codec, "decode_symbols", no_symbol_decode)
    received = dict(enumerate(packets))
    assert codec.decode(received) == block(name, m, False)[:K]


def test_bytes_payloads_come_back_as_they_are():
    packets = block("rse", 8, False)
    decoded = make_codec("rse", GF256).decode(dict(enumerate(packets)))
    assert all(out is packet for out, packet in zip(decoded, packets))


def one_symbol_short(packet, m: int):
    """``packet`` with its last symbol (a byte, for GF(2^4) bytes) cut."""
    if isinstance(packet, bytes) and m == 16:
        return packet[:-2]
    return packet[:-1]


@pytest.mark.parametrize("name,m,as_symbols", CASES, ids=map(case_id, CASES))
class TestSameErrorsAsGeneralPath:
    def assert_same(self, name, m, received):
        (fast, _), (oracle, _) = both_paths(name, m, received)
        assert isinstance(oracle, tuple), "the oracle accepted a bad input"
        assert fast == oracle

    def test_mismatched_data_length(self, name, m, as_symbols):
        packets = block(name, m, as_symbols)
        received = dict(enumerate(packets))
        received[2] = one_symbol_short(packets[2], m)
        self.assert_same(name, m, received)

    def test_mismatched_parity_length(self, name, m, as_symbols):
        # parities are validated too, even though none is decoded from
        packets = block(name, m, as_symbols)
        received = dict(enumerate(packets))
        received[K] = one_symbol_short(packets[K], m)
        self.assert_same(name, m, received)

    def test_out_of_range_index(self, name, m, as_symbols):
        packets = block(name, m, as_symbols)
        for stray in (-1, len(packets), len(packets) + 7):
            received = dict(enumerate(packets[:K]))
            received[stray] = packets[K]
            self.assert_same(name, m, received)

    def test_fewer_than_k_packets(self, name, m, as_symbols):
        packets = block(name, m, as_symbols)
        self.assert_same(name, m, dict(enumerate(packets[: K - 1])))


@pytest.mark.parametrize("name", sorted(PARITIES))
def test_odd_length_gf65536_payload(name):
    packets = [packet + b"\x00" for packet in block(name, 16, False)]
    for received in (
        dict(enumerate(packets[:K])),
        dict(enumerate(packets)),
        # only the parity is ragged
        {**dict(enumerate(block(name, 16, False))), K: packets[K]},
    ):
        (fast, _), (oracle, _) = both_paths(name, 16, received)
        assert isinstance(oracle, tuple) and fast == oracle


@pytest.mark.parametrize("name", sorted(PARITIES))
def test_out_of_range_symbol_value(name):
    # uint8 arrays can hold values GF(2^4) has no symbol for
    packets = block(name, 4, True)
    packets[1] = packets[1].copy()
    packets[1][0] = 16
    (fast, _), (oracle, _) = both_paths(name, 4, dict(enumerate(packets)))
    assert isinstance(oracle, tuple) and fast == oracle


@pytest.mark.parametrize("name", sorted(PARITIES))
def test_unsupported_m_for_byte_payloads(name):
    field = GaloisField(5)
    codec = make_codec(name, field)
    received = {i: bytes(SYMBOLS) for i in range(codec.n)}
    outcomes = []
    for decode in (ErasureCode.decode, general_decode):
        with pytest.raises(ValueError) as caught:
            decode(make_codec(name, field), dict(received))
        outcomes.append((type(caught.value), str(caught.value)))
    assert outcomes[0] == outcomes[1]
