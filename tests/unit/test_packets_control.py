"""Control-packet CRC protection: corruption-to-drop semantics.

Payload packets have carried checksums since PR 2; control packets (polls,
NAKs, aborts, session control) gained them with the `repro.net` transport.
The regression pinned here: a control packet whose fields were tampered
with after construction (stale checksum — what a real wire bit-flip looks
like once decoded) is *dropped*, never acted on.
"""

import dataclasses
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.layered import LayeredReceiver, LayeredSender, SlotNak
from repro.protocols.n2 import N2Receiver, N2Sender
from repro.protocols.np_protocol import NPConfig, NPReceiver, NPSender
from repro.protocols.packets import (
    GroupAbort,
    Nak,
    Poll,
    SelectiveNak,
    SessionAnnounce,
    SessionComplete,
    SessionFin,
    SessionJoin,
    _AutoControlChecksum,
    _control_layout,
    control_checksum_of,
    control_intact,
)
from repro.sim.engine import Simulator
from repro.sim.loss import BernoulliLoss
from repro.sim.network import MulticastNetwork

CONTROL_SAMPLES = [
    Poll(3, 7, 2),
    Nak(1, 4, 2),
    SelectiveNak(2, (0, 3), 1),
    GroupAbort(5, 9),
    SlotNak(4, (1, 2, 6), 3),
    SessionJoin(group=2, nonce=77),
    SessionAnnounce(k=8, h=16, packet_size=512, n_groups=10, total_length=40960),
    SessionComplete(delivered=10, failed=0),
    SessionFin("ejected"),
]


def make_network(n_receivers=1, seed=0):
    sim = Simulator()
    network = MulticastNetwork(
        sim,
        BernoulliLoss(n_receivers, 0.0),
        np.random.default_rng(seed),
        latency=0.001,
    )
    return sim, network


def attach_sink(network):
    """Satisfy the network's wiring check for sender-only tests."""
    packets = []
    network.attach_receiver(packets.append)
    return packets


class TestControlChecksum:
    @pytest.mark.parametrize(
        "packet", CONTROL_SAMPLES, ids=lambda p: type(p).__name__
    )
    def test_auto_stamped_and_intact(self, packet):
        assert packet.checksum is not None
        assert packet.checksum == control_checksum_of(packet)
        assert control_intact(packet)

    @pytest.mark.parametrize(
        "packet,field,value",
        [
            (Poll(3, 7, 2), "tg", 4),
            (Nak(1, 4, 2), "needed", 5),
            (SelectiveNak(2, (0, 3), 1), "missing", (0, 1)),
            (GroupAbort(5, 9), "tg", 0),
            (SlotNak(4, (1, 2), 3), "slots", (1, 5)),
            (SessionAnnounce(8, 16, 512, 10, 40960), "n_groups", 11),
            (SessionFin("ejected"), "reason", "complete"),
        ],
        ids=lambda v: str(v)[:24],
    )
    def test_tampered_copy_fails_verification(self, packet, field, value):
        # dataclasses.replace carries the stale checksum into the new field
        # set — the in-memory analogue of a bit-flipped wire frame
        tampered = dataclasses.replace(packet, **{field: value})
        assert not control_intact(tampered)

    def test_none_checksum_is_unverifiable_and_accepted(self):
        # journals written before this change rebuild control packets with
        # checksum=None via explicit construction paths; they stay accepted
        poll = dataclasses.replace(Poll(1, 2, 3), checksum=None)
        # replace(..., checksum=None) re-stamps via __post_init__ — build
        # the unverifiable form the long way to pin the contract
        assert control_intact(poll)  # restamped, still intact
        object.__setattr__(poll, "checksum", None)
        assert control_intact(poll)

    def test_checksum_covers_type_name(self):
        # Poll(1, 2, 3) and Nak(1, 2, 3) share field values; their
        # checksums must differ so a type-confused frame cannot verify
        assert Poll(1, 2, 3).checksum != Nak(1, 2, 3).checksum

    def test_session_fin_rejects_unknown_reason(self):
        with pytest.raises(ValueError):
            SessionFin("made-up")


#: CRC-32 of each control class's sample, computed by the original
#: ``dataclasses.fields``-per-call encoding: a change to the bytes the CRC
#: covers (field order, names, type name, repr) breaks these literals.
PINNED_CRCS = {
    "Poll": 3008996710,
    "Nak": 3965358410,
    "SelectiveNak": 895778184,
    "GroupAbort": 1895124517,
    "SlotNak": 2444236327,
    "SessionJoin": 1835935176,
    "SessionAnnounce": 535182026,
    "SessionComplete": 3906287406,
    "SessionFin": 1408010825,
}


def control_classes() -> list[type]:
    """Every control packet class, by name."""
    classes, pending = [], [_AutoControlChecksum]
    while pending:
        for sub in pending.pop().__subclasses__():
            classes.append(sub)
            pending.append(sub)
    return sorted(classes, key=lambda cls: cls.__name__)


class TestPinnedControlChecksums:
    @pytest.mark.parametrize(
        "packet", CONTROL_SAMPLES, ids=lambda p: type(p).__name__
    )
    def test_checksum_matches_literal(self, packet):
        assert control_checksum_of(packet) == PINNED_CRCS[type(packet).__name__]
        assert packet.checksum == PINNED_CRCS[type(packet).__name__]

    def test_every_control_class_is_pinned(self):
        assert {cls.__name__ for cls in control_classes()} == set(PINNED_CRCS)


def oracle_encoding(packet) -> str:
    """The checksummed encoding as first written: the ``repr`` of a nested
    ``(type name, ((field, value), ...))`` tuple built per packet."""
    cls = type(packet)
    fields = tuple(
        (f.name, getattr(packet, f.name))
        for f in dataclasses.fields(cls)
        if f.name != "checksum"
    )
    return repr((cls.__name__, fields))


def template_encoding(packet) -> str:
    template, values = _control_layout(type(packet))
    return template % values(packet)


def unchecked(cls: type, values: dict):
    """An instance of ``cls`` holding ``values`` as they are, without the
    constructor's validation or checksum stamping."""
    packet = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(packet, name, value)
    object.__setattr__(packet, "checksum", None)
    return packet


#: control field values the encoding must carry exactly
FIELD_VALUES = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.text(
        alphabet=st.one_of(
            st.sampled_from("'\"\\%\n\t"), st.characters(min_codepoint=32)
        ),
        max_size=12,
    ),
    st.tuples(st.integers(min_value=-(2**40), max_value=2**40)),
    st.lists(st.integers(min_value=-5, max_value=2**33), max_size=5).map(tuple),
)


class TestControlChecksumLayout:
    """The per-class template feeds ``crc32`` the oracle's exact bytes."""

    @pytest.mark.parametrize(
        "packet", CONTROL_SAMPLES, ids=lambda p: type(p).__name__
    )
    def test_template_matches_oracle(self, packet):
        assert template_encoding(packet) == oracle_encoding(packet)
        assert control_checksum_of(packet) == zlib.crc32(
            oracle_encoding(packet).encode("utf-8")
        )

    def test_single_field_keeps_trailing_comma(self):
        fin = SessionFin("aborted")
        assert template_encoding(fin) == "('SessionFin', (('reason', 'aborted'),))"

    def test_tuple_field_is_formatted_as_one_value(self):
        for missing in ((), (7,), (0, 3, 9)):
            nak = SelectiveNak(2, missing, 1)
            assert template_encoding(nak) == oracle_encoding(nak)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_template_matches_oracle_for_any_values(self, data):
        cls = data.draw(st.sampled_from(control_classes()))
        names = [f.name for f in dataclasses.fields(cls) if f.name != "checksum"]
        packet = unchecked(cls, {name: data.draw(FIELD_VALUES) for name in names})
        assert template_encoding(packet) == oracle_encoding(packet)
        assert control_checksum_of(packet) == zlib.crc32(
            oracle_encoding(packet).encode("utf-8")
        )


class TestCorruptControlDropped:
    """A tampered control packet reaches a state machine and is ignored."""

    def test_np_receiver_drops_corrupt_poll(self):
        sim, network = make_network()
        config = NPConfig(k=2, h=2)
        NPSender(sim, network, b"x" * 64, config)
        receiver = NPReceiver(sim, network, n_groups=1, config=config,
                              rng=np.random.default_rng(1))
        corrupt = dataclasses.replace(Poll(0, 2, 1), tg=9999)
        receiver.on_packet(corrupt)
        assert receiver.stats.control_corrupt_discarded == 1
        assert receiver.stats.polls_received == 0

    def test_np_receiver_drops_corrupt_abort(self):
        sim, network = make_network()
        config = NPConfig(k=2, h=2)
        receiver = NPReceiver(sim, network, n_groups=3, config=config,
                              rng=np.random.default_rng(1))
        corrupt = dataclasses.replace(GroupAbort(2, 4), tg=0)
        receiver.on_packet(corrupt)
        # the healthy group 0 must NOT be marked failed by a corrupt abort
        assert receiver.failed_groups() == ()
        assert receiver.stats.groups_failed == 0
        assert receiver.stats.control_corrupt_discarded == 1

    def test_np_sender_drops_corrupt_nak(self):
        sim, network = make_network()
        config = NPConfig(k=2, h=4)
        sender = NPSender(sim, network, b"y" * 64, config)
        attach_sink(network)
        sender.start()
        sim.run()
        served_before = sender.stats.rounds_served
        corrupt = dataclasses.replace(Nak(0, 1, 1), needed=2)
        sender.on_feedback(corrupt)
        assert sender.stats.control_corrupt_discarded == 1
        assert sender.stats.naks_received == 0
        assert sender.stats.rounds_served == served_before

    def test_n2_sender_drops_corrupt_selective_nak(self):
        sim, network = make_network()
        config = NPConfig(k=2)
        sender = N2Sender(sim, network, b"z" * 64, config)
        attach_sink(network)
        sender.start()
        sim.run()
        corrupt = dataclasses.replace(SelectiveNak(0, (0,), 1), missing=(1,))
        sender.on_feedback(corrupt)
        assert sender.stats.control_corrupt_discarded == 1
        assert sender.stats.naks_received == 0

    def test_n2_receiver_drops_corrupt_poll(self):
        sim, network = make_network()
        config = NPConfig(k=2)
        N2Sender(sim, network, b"z" * 64, config)
        receiver = N2Receiver(sim, network, n_groups=1, config=config,
                              rng=np.random.default_rng(2))
        receiver.on_packet(dataclasses.replace(Poll(0, 2, 1), sent=1))
        assert receiver.stats.control_corrupt_discarded == 1
        assert receiver.stats.polls_received == 0

    def test_layered_sender_drops_corrupt_slot_nak(self):
        sim, network = make_network()
        config = NPConfig(k=2, h=1)
        sender = LayeredSender(sim, network, b"w" * 64, config)
        attach_sink(network)
        sender.start()
        sim.run()
        corrupt = dataclasses.replace(SlotNak(0, (0,), 1), slots=(1,))
        sender.on_feedback(corrupt)
        assert sender.stats.control_corrupt_discarded == 1
        assert sender.stats.naks_received == 0

    def test_intact_control_still_acted_on(self):
        # the happy path must be unchanged: a full transfer still completes
        sim, network = make_network()
        config = NPConfig(k=2, h=2)
        sender = NPSender(sim, network, b"q" * 64, config)
        receiver = NPReceiver(sim, network, n_groups=sender.n_groups,
                              config=config, rng=np.random.default_rng(3))
        sender.start()
        sim.run()
        assert receiver.complete
        assert receiver.stats.control_corrupt_discarded == 0
