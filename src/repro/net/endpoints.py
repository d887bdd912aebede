"""Asyncio ``DatagramProtocol`` endpoints: the serving and fetching sides.

:class:`NetServer` binds a UDP socket, admits joins, and multiplexes
every live :class:`~repro.net.session.SenderSession` by session id —
one server serves many concurrent transfer groups.  :func:`fetch` is the
receiving side: join handshake with seeded retry/backoff, the NP recovery
loop (NAK on poll, watchdog re-NAKs under a bounded budget), reassembly,
and completion handshake.

Failure taxonomy is shared with the simulator
(:mod:`repro.resilience.errors`): a transfer that crosses its deadline
raises :class:`TransferTimeout`; one whose solicitation budget runs dry,
or that the sender ejects, raises :class:`TransferStalled` — both carry a
:class:`~repro.resilience.report.StallReport` snapshot, so a failed fetch
is triageable from the exception alone.

Frames that fail to decode — truncated, corrupted, wrong version — are
counted (``net.frame_errors{reason}``) and dropped on both sides: the
chaos proxy can mangle anything it likes and the endpoints shrug.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.fec.block import BlockDecoder, join_stream
from repro.fec.registry import create_codec
from repro.net.session import SenderSession, SessionReport
from repro.net.supervision import NakScheduler, NetConfig
from repro.net.wire import (
    FrameError,
    TraceContextPacket,
    decode_frame,
    encode_frame,
    frame_kind,
)
from repro.obs.httpd import MetricsEndpoint
from repro.obs.tracecontext import is_trace_id, mint_trace_id
from repro.protocols.packets import (
    DataPacket,
    GroupAbort,
    Nak,
    ParityPacket,
    Poll,
    Retransmission,
    SessionAnnounce,
    SessionComplete,
    SessionFin,
    SessionJoin,
    control_intact,
    payload_symbols,
)
from repro.resilience.errors import TransferStalled, TransferTimeout
from repro.resilience.report import ReceiverStall, StallReport

__all__ = ["NetServer", "FetchResult", "fetch"]

Address = tuple

#: cap on watchdog NAKs released per scheduler tick (batch pacing)
_NAK_BATCH = 32


def _count_tx(packet) -> None:
    if obs.is_enabled():
        obs.counter("net.frames_tx", kind=frame_kind(packet)).inc()


def _count_rx(packet) -> None:
    if obs.is_enabled():
        obs.counter("net.frames_rx", kind=frame_kind(packet)).inc()


def _count_frame_error(error: FrameError) -> None:
    if obs.is_enabled():
        obs.counter("net.frame_errors", reason=error.reason).inc()


# ----------------------------------------------------------------------
# serving side
# ----------------------------------------------------------------------
class _ServerProtocol(asyncio.DatagramProtocol):
    def __init__(self, server: "NetServer"):
        self.server = server
        self.transport: asyncio.DatagramTransport | None = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr: Address) -> None:
        self.server._datagram(data, addr)

    def error_received(self, exc) -> None:  # pragma: no cover - OS-specific
        pass


class NetServer:
    """One UDP socket serving many concurrent transfer sessions.

    Usage::

        server = NetServer(data, config)
        host, port = await server.start()
        ...                       # receivers fetch from (host, port)
        await server.close()      # reports in server.reports
    """

    def __init__(
        self,
        data: bytes,
        config: NetConfig = NetConfig(),
        bind: Address = ("127.0.0.1", 0),
        metrics_port: int | None = None,
    ):
        self.data = data
        self.config = config
        self.bind = bind
        self.sessions: dict[int, SenderSession] = {}
        #: group tag -> session still in its gathering window
        self._gathering: dict[int, SenderSession] = {}
        self.reports: list[SessionReport] = []
        self.frame_errors = 0
        self._next_session_id = 1
        self._transport: asyncio.DatagramTransport | None = None
        self._tasks: set[asyncio.Task] = set()
        self._closed = asyncio.Event()
        #: optional HTTP pull endpoint for scrapers (None = disabled;
        #: 0 = bind an ephemeral port, reported by ``metrics_address``)
        self._metrics_port = metrics_port
        self._metrics: MetricsEndpoint | None = None

    @property
    def metrics_address(self) -> Address | None:
        """Bound address of the metrics endpoint, if one is serving."""
        if self._metrics is None:
            return None
        return self._metrics.address

    @property
    def address(self) -> Address:
        if self._transport is None:
            raise RuntimeError("server not started")
        return self._transport.get_extra_info("sockname")[:2]

    async def start(self) -> Address:
        loop = asyncio.get_running_loop()
        self._transport, _ = await loop.create_datagram_endpoint(
            lambda: _ServerProtocol(self), local_addr=self.bind
        )
        if self._metrics_port is not None:
            self._metrics = MetricsEndpoint(port=self._metrics_port)
            await self._metrics.start()
        return self.address

    async def close(self) -> None:
        self._closed.set()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        if self._metrics is not None:
            await self._metrics.stop()
            self._metrics = None
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    async def serve(self, duration: float | None = None) -> None:
        """Block until :meth:`close` (or for ``duration`` seconds)."""
        try:
            await asyncio.wait_for(self._closed.wait(), timeout=duration)
        except asyncio.TimeoutError:
            pass

    # -- inbound ----------------------------------------------------------
    def _send(self, packet, addr: Address, session_id: int) -> None:
        if self._transport is None or self._transport.is_closing():
            return
        _count_tx(packet)
        self._transport.sendto(encode_frame(packet, session_id), addr)

    def _datagram(self, data: bytes, addr: Address) -> None:
        try:
            frame = decode_frame(data)
        except FrameError as error:
            self.frame_errors += 1
            _count_frame_error(error)
            return
        _count_rx(frame.packet)
        if isinstance(frame.packet, SessionJoin):
            self._on_join(frame.packet, addr)
            return
        session = self.sessions.get(frame.session_id)
        if session is not None:
            session.on_frame(frame.packet, addr)

    def _on_join(self, join: SessionJoin, addr: Address) -> None:
        if not control_intact(join):
            return
        # a rejoin from a member of a live session is a lost-announce
        # retry (or a churn revival), not a new session; only a refused
        # add (session already DONE) falls through to a fresh session
        for session in self.sessions.values():
            if addr in session.members and session.group == join.group:
                if session.add_member(addr, join):
                    return
        session = self._gathering.get(join.group)
        if session is not None and session.state == "gathering":
            session.add_member(addr, join)
            return
        self._spawn_session(join, addr)

    def _spawn_session(self, join: SessionJoin, addr: Address) -> None:
        session_id = self._next_session_id
        self._next_session_id += 1
        loop = asyncio.get_running_loop()
        session = SenderSession(
            session_id=session_id,
            group=join.group,
            data=self.data,
            config=self.config,
            send=lambda packet, to, sid=session_id: self._send(
                packet, to, sid
            ),
            now=loop.time,
            # deterministic: the same (seed, session id, group) always
            # stitches under the same trace
            trace_id=mint_trace_id(
                "net", self.config.seed, session_id, join.group
            ),
        )
        self.sessions[session_id] = session
        self._gathering[join.group] = session
        session.add_member(addr, join)
        task = loop.create_task(self._run_session(session))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run_session(self, session: SenderSession) -> None:
        try:
            await asyncio.sleep(self.config.join_window)
            self._gathering.pop(session.group, None)
            report = await session.run()
            self.reports.append(report)
        finally:
            self._gathering.pop(session.group, None)
            self.sessions.pop(session.session_id, None)


# ----------------------------------------------------------------------
# fetching side
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FetchResult:
    """A completed fetch: the bytes plus how hard the transfer fought."""

    data: bytes
    n_groups: int
    delivered_groups: int
    #: groups the sender abandoned under its round cap (data is zero-filled
    #: over their extent); empty for a fully successful transfer
    failed_groups: tuple[int, ...]
    naks_sent: int
    watchdog_retries: int
    watchdog_exhaustions: int
    frames_received: int
    frame_errors: int
    duration: float
    #: times this receiver rejoined the session after being ejected
    #: (blackout churn survived); 0 unless ``config.rejoin_attempts`` > 0
    rejoins: int = 0
    #: telemetry trace id announced by the sender session (None when the
    #: sender predates trace-context packets, or the packet was lost)
    trace_id: str | None = None

    @property
    def complete(self) -> bool:
        return not self.failed_groups

    def to_json(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "bytes": len(self.data),
            "n_groups": self.n_groups,
            "delivered_groups": self.delivered_groups,
            "failed_groups": list(self.failed_groups),
            "naks_sent": self.naks_sent,
            "watchdog_retries": self.watchdog_retries,
            "watchdog_exhaustions": self.watchdog_exhaustions,
            "frames_received": self.frames_received,
            "frame_errors": self.frame_errors,
            "duration": self.duration,
            "rejoins": self.rejoins,
            "complete": self.complete,
        }


class _ReceiverProtocol(asyncio.DatagramProtocol):
    """Receiver state machine: join -> recover -> reassemble -> complete."""

    def __init__(self, config: NetConfig, group: int):
        self.config = config
        self.group = group
        self.rng = np.random.default_rng(config.seed)
        self.nonce = int(self.rng.integers(0, 2**63))
        self.scheduler = NakScheduler(config.nak_retry, self.rng)
        self.transport: asyncio.DatagramTransport | None = None
        self.session_id: int | None = None
        self.announce: SessionAnnounce | None = None
        self.announced = asyncio.Event()
        self.done = asyncio.Event()
        self.codec = None
        self.decoders: dict[int, BlockDecoder] = {}
        self.delivered: set[int] = set()
        self.abandoned: set[int] = set()
        self.last_poll_round: dict[int, int] = {}
        self.max_tg_seen = -1
        self.last_stream_rx = 0.0
        self.fin_reason: str | None = None
        self.trace_id: str | None = None
        self.naks_sent = 0
        self.frames_received = 0
        self.frame_errors = 0
        self.control_corrupt_discarded = 0
        self.rejoins = 0

    # -- plumbing ---------------------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        self.last_stream_rx = asyncio.get_running_loop().time()

    def error_received(self, exc) -> None:  # pragma: no cover - OS-specific
        pass

    def send(self, packet) -> None:
        if self.transport is None or self.transport.is_closing():
            return
        _count_tx(packet)
        self.transport.sendto(
            encode_frame(packet, self.session_id or 0)
        )

    # -- inbound ----------------------------------------------------------
    def datagram_received(self, data: bytes, addr: Address) -> None:
        try:
            frame = decode_frame(data)
        except FrameError as error:
            self.frame_errors += 1
            _count_frame_error(error)
            return
        self.frames_received += 1
        _count_rx(frame.packet)
        packet = frame.packet
        now = asyncio.get_running_loop().time()
        if isinstance(packet, SessionAnnounce):
            self._on_announce(packet, frame.session_id)
            return
        if self.session_id is None or frame.session_id != self.session_id:
            return
        if isinstance(packet, (DataPacket, ParityPacket, Retransmission)):
            self._on_payload(packet, now)
        elif isinstance(packet, Poll):
            if not control_intact(packet):
                self.control_corrupt_discarded += 1
                return
            self._on_poll(packet, now)
        elif isinstance(packet, GroupAbort):
            if not control_intact(packet):
                self.control_corrupt_discarded += 1
                return
            self._on_abort(packet)
        elif isinstance(packet, SessionFin):
            if not control_intact(packet):
                self.control_corrupt_discarded += 1
                return
            self.fin_reason = packet.reason
            self.done.set()
        elif isinstance(packet, TraceContextPacket):
            if self.trace_id is None and is_trace_id(packet.trace_id):
                self.trace_id = packet.trace_id

    def _on_announce(self, announce: SessionAnnounce, session_id: int) -> None:
        if not control_intact(announce):
            self.control_corrupt_discarded += 1
            return
        if self.announce is not None:
            return  # duplicate announce (join retry crossed the reply)
        self.announce = announce
        self.session_id = session_id
        self.codec = create_codec(announce.codec, announce.k, announce.h)
        self.announced.set()

    def _decoder(self, tg: int) -> BlockDecoder:
        decoder = self.decoders.get(tg)
        if decoder is None:
            decoder = self.decoders[tg] = BlockDecoder(
                self.announce.k, self.codec
            )
        return decoder

    def _on_payload(self, packet, now: float) -> None:
        tg = packet.tg
        if not 0 <= tg < self.announce.n_groups:
            return
        if not 0 <= packet.index < self.codec.n:
            return  # a stray block index would be refused by the decoder
        self.last_stream_rx = now
        if tg > self.max_tg_seen:
            # the stream has reached tg: every earlier group is in play,
            # so arm solicitation deadlines for any still-missing ones
            for behind in range(self.max_tg_seen + 1, tg + 1):
                if behind not in self.delivered and behind not in self.abandoned:
                    self.scheduler.arm(behind, now)
            self.max_tg_seen = tg
        if tg in self.delivered or tg in self.abandoned:
            return
        self.scheduler.heard(tg, now)
        # Hand the payload to the decoder as a zero-copy symbol view when
        # the field is byte-aligned; the codec's ndarray path skips both
        # the bytes round-trip and (for full-range fields) the value scan.
        payload = packet.payload
        if self.codec.field.m in (8, 16):
            payload = payload_symbols(packet, self.codec.field)
        if self._decoder(tg).add(packet.index, payload):
            self.delivered.add(tg)
            self.scheduler.forget(tg)
            self._check_done()

    def _on_poll(self, poll: Poll, now: float) -> None:
        tg = poll.tg
        if not 0 <= tg < self.announce.n_groups:
            return
        self.last_stream_rx = now
        self.last_poll_round[tg] = poll.round
        if tg in self.delivered or tg in self.abandoned:
            return
        missing = self._missing(tg)
        if missing > 0:
            # the poll-solicited NAK is free (not billed to the watchdog
            # budget); the deadline restarts behind it
            self.naks_sent += 1
            self.send(Nak(tg, missing, poll.round))
            self.scheduler.heard(tg, now)

    def _on_abort(self, abort: GroupAbort) -> None:
        tg = abort.tg
        if not 0 <= tg < self.announce.n_groups:
            return
        if tg in self.delivered:
            return
        self.abandoned.add(tg)
        self.scheduler.forget(tg)
        self._check_done()

    # -- recovery loop ----------------------------------------------------
    def _missing(self, tg: int) -> int:
        decoder = self.decoders.get(tg)
        if decoder is None:
            return self.announce.k
        return decoder.missing

    def _candidates(self, now: float) -> list[int]:
        """Groups worth soliciting right now.

        Groups the stream has visibly reached (``<= max_tg_seen``) are
        always candidates; the rest only once the stream has gone silent —
        NAKing group 90 while the sender is still streaming group 10 would
        just burn budget.
        """
        if self.announce is None:
            return []
        stream_silent = (
            now - self.last_stream_rx > self.config.nak_retry.base_delay
        )
        out = []
        for tg in range(self.announce.n_groups):
            if tg in self.delivered or tg in self.abandoned:
                continue
            if tg <= self.max_tg_seen or stream_silent:
                out.append(tg)
        return out

    def solicit(self, now: float) -> list[int]:
        """One watchdog tick: fire due re-NAKs; returns the groups hit."""
        candidates = self._candidates(now)
        due = self.scheduler.due(candidates, now, _NAK_BATCH)
        for tg in due:
            self.naks_sent += 1
            if obs.is_enabled():
                obs.counter("net.nak_retries").inc()
            self.send(Nak(tg, self._missing(tg), self.last_poll_round.get(tg, 1)))
        return due

    def budget_exhausted(self, now: float) -> bool:
        candidates = self._candidates(now)
        return bool(candidates) and self.scheduler.all_exhausted(candidates)

    def rejoin(self, now: float) -> None:
        """Re-enter the session after an ejection (churn recovery).

        The decoders keep everything received before the blackout, so
        recovery resumes from the retained :class:`BlockDecoder` state —
        only the still-missing groups are re-solicited, never the whole
        transfer.  The NAK budget of those groups is reset: the ejection
        was the *network's* fault, not evidence the sender is gone.
        """
        self.rejoins += 1
        if obs.is_enabled():
            obs.counter("net.rejoins").inc()
        self.done.clear()
        self.fin_reason = None
        for tg in self.missing_groups():
            if tg not in self.abandoned:
                self.scheduler.state(tg)  # ensure tracked, then reset
                self.scheduler.heard(tg, now)
        self.send(SessionJoin(group=self.group, nonce=self.nonce))

    def _check_done(self) -> None:
        if self.announce is None:
            return
        settled = len(self.delivered) + len(self.abandoned)
        if settled >= self.announce.n_groups:
            self.done.set()

    # -- reassembly -------------------------------------------------------
    def assemble(self) -> bytes:
        announce = self.announce
        groups: list[list[bytes]] = []
        blank = [b"\x00" * announce.packet_size] * announce.k
        for tg in range(announce.n_groups):
            if tg in self.delivered:
                groups.append(self.decoders[tg].reconstruct())
            else:
                groups.append(blank)
        return join_stream(groups, announce.total_length)

    def missing_groups(self) -> tuple[int, ...]:
        if self.announce is None:
            return ()
        return tuple(
            tg
            for tg in range(self.announce.n_groups)
            if tg not in self.delivered
        )


async def fetch(
    host: str,
    port: int,
    config: NetConfig = NetConfig(),
    group: int = 0,
    deadline: float = 30.0,
) -> FetchResult:
    """Fetch one transfer from a :class:`NetServer` at ``(host, port)``.

    Raises :class:`TransferTimeout` when ``deadline`` elapses and
    :class:`TransferStalled` when the join or NAK solicitation budget runs
    dry or the sender ejects this receiver — both with a
    :class:`StallReport` attached.
    """
    loop = asyncio.get_running_loop()
    transport, protocol = await loop.create_datagram_endpoint(
        lambda: _ReceiverProtocol(config, group), remote_addr=(host, port)
    )
    start = loop.time()
    try:
        with obs.span("net.fetch", side="receiver", group=group) as sp:
            await _join(protocol, config, start, deadline)
            await _recover(protocol, config, start, deadline)
            # the trace id arrives mid-span (behind the announce), so it
            # is attached to the already-open span rather than passed in
            if protocol.trace_id is not None and hasattr(sp, "attrs"):
                sp.attrs.setdefault("trace", protocol.trace_id)
            data = protocol.assemble()
            await _complete(protocol, config)
    finally:
        transport.close()
    duration = loop.time() - start
    if obs.is_enabled() and duration > 0:
        obs.gauge("net.goodput_bytes_per_s").observe(len(data) / duration)
    return FetchResult(
        data=data,
        n_groups=protocol.announce.n_groups,
        delivered_groups=len(protocol.delivered),
        failed_groups=tuple(sorted(protocol.abandoned)),
        naks_sent=protocol.naks_sent,
        watchdog_retries=protocol.scheduler.retries_granted,
        watchdog_exhaustions=protocol.scheduler.exhaustions,
        frames_received=protocol.frames_received,
        frame_errors=protocol.frame_errors,
        duration=duration,
        rejoins=protocol.rejoins,
        trace_id=protocol.trace_id,
    )


def _stall_report(
    protocol: _ReceiverProtocol, config: NetConfig, start: float
) -> StallReport:
    loop = asyncio.get_running_loop()
    return StallReport(
        protocol="net-np",
        sim_time=loop.time() - start,
        events_dispatched=protocol.frames_received,
        pending_events=0,
        receivers=(
            ReceiverStall(
                receiver_id=0,
                missing_groups=protocol.missing_groups(),
                last_progress_time=max(0.0, protocol.last_stream_rx - start),
                watchdog_retries=protocol.scheduler.retries_granted,
                watchdog_exhaustions=protocol.scheduler.exhaustions,
                crashes=0,
            ),
        ),
        abandoned_groups=tuple(sorted(protocol.abandoned)),
        injected_faults={},
        seed=config.seed,
        fault_plan=None,
    )


async def _join(
    protocol: _ReceiverProtocol,
    config: NetConfig,
    start: float,
    deadline: float,
) -> None:
    """Solicit membership under the join retry budget."""
    loop = asyncio.get_running_loop()
    policy = config.join_retry
    join = SessionJoin(group=protocol.group, nonce=protocol.nonce)
    for attempt in range(1, policy.retries + 2):
        protocol.send(join)
        wait = min(
            policy.delay(attempt, protocol.rng),
            max(0.01, deadline - (loop.time() - start)),
        )
        try:
            await asyncio.wait_for(protocol.announced.wait(), timeout=wait)
            return
        except asyncio.TimeoutError:
            if loop.time() - start > deadline:
                raise TransferTimeout(
                    "net fetch: no announce before the deadline",
                    _stall_report(protocol, config, start),
                ) from None
    raise TransferStalled(
        f"net fetch: join solicitation exhausted after "
        f"{policy.retries + 1} attempts",
        _stall_report(protocol, config, start),
    )


async def _recover(
    protocol: _ReceiverProtocol,
    config: NetConfig,
    start: float,
    deadline: float,
) -> None:
    """Drive the NAK watchdog until delivery, ejection or exhaustion.

    An ``ejected`` fin is terminal only once ``config.rejoin_attempts``
    is spent: until then the receiver re-joins the live session and
    resumes from its retained decoder state — the sender revives the
    member and serves repairs for whatever is still missing.
    """
    loop = asyncio.get_running_loop()
    tick = protocol.scheduler.tick
    rejoins_left = config.rejoin_attempts
    while True:
        while not protocol.done.is_set():
            now = loop.time()
            if now - start > deadline:
                raise TransferTimeout(
                    f"net fetch: deadline of {deadline}s elapsed with "
                    f"{len(protocol.missing_groups())} groups missing",
                    _stall_report(protocol, config, start),
                )
            protocol.solicit(now)
            if protocol.budget_exhausted(now):
                raise TransferStalled(
                    "net fetch: NAK retry budget exhausted with the stream "
                    "silent",
                    _stall_report(protocol, config, start),
                )
            try:
                await asyncio.wait_for(protocol.done.wait(), timeout=tick)
            except asyncio.TimeoutError:
                pass
        if protocol.fin_reason == "ejected" and rejoins_left > 0:
            rejoins_left -= 1
            protocol.rejoin(loop.time())
            continue
        if protocol.fin_reason in ("ejected", "aborted"):
            raise TransferStalled(
                f"net fetch: sender closed the session "
                f"({protocol.fin_reason})",
                _stall_report(protocol, config, start),
            )
        return


async def _complete(protocol: _ReceiverProtocol, config: NetConfig) -> None:
    """Tell the sender we are done; tolerate a lost fin."""
    complete = SessionComplete(
        delivered=len(protocol.delivered), failed=len(protocol.abandoned)
    )
    protocol.done.clear()
    protocol.fin_reason = None
    for _ in range(config.complete_repeats):
        protocol.send(complete)
        try:
            await asyncio.wait_for(protocol.done.wait(), timeout=0.1)
        except asyncio.TimeoutError:
            continue
        if protocol.fin_reason == "complete":
            return
    # fin never arrived — the data is delivered regardless; the sender's
    # member timeout will reap us
