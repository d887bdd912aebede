"""End-to-end: the real UDP transport over loopback, with and without chaos.

The acceptance scenario from the transport's design brief: a ≥1000-data-
packet transfer pushed through the chaos proxy at 10% seeded loss plus
corruption, duplication and reordering must complete **bit-identical** at
every receiver within a bounded retry budget; a feedback blackout must
degrade into a *typed* failure (``TransferStalled`` with a
``StallReport``), never a hang.

No pytest-asyncio in the container: every test drives its own loop via
``asyncio.run``.  Every transfer is wrapped in ``asyncio.wait_for`` so a
liveness bug fails the test instead of wedging the suite (CI adds
pytest-timeout on top; the ``timeout`` marks are no-ops without it).
"""

import asyncio

import numpy as np
import pytest

from repro.campaign.retry import RetryPolicy
from repro.net import ChaosPlan, ChaosProxy, NetConfig, NetServer, fetch
from repro.net.session import SenderSession
from repro.protocols.packets import DataPacket, ParityPacket
from repro.resilience.errors import TransferStalled, TransferTimeout

pytestmark = pytest.mark.timeout(180)

#: every test's hard internal bound, enforced with asyncio.wait_for
HARD_LIMIT = 60.0


def run_bounded(coro):
    async def bounded():
        return await asyncio.wait_for(coro, timeout=HARD_LIMIT)

    return asyncio.run(bounded())


def payload(n_groups: int, config: NetConfig, seed: int = 99) -> bytes:
    size = n_groups * config.k * config.packet_size
    return np.random.default_rng(seed).bytes(size)


#: 10% loss + corruption + duplication + reordering, per direction
def chaos_plan(seed: int) -> ChaosPlan:
    return ChaosPlan(
        seed=seed,
        loss=0.10,
        corrupt=0.02,
        duplicate=0.02,
        reorder=0.05,
        reorder_delay=0.01,
    )


class TestCleanLoopback:
    def test_three_receivers_share_one_session(self):
        config = NetConfig(k=4, h=8, packet_size=256, seed=1)
        data = payload(6, config)

        async def scenario():
            server = NetServer(data, config)
            host, port = await server.start()
            results = await asyncio.gather(
                *(
                    fetch(
                        host,
                        port,
                        config=NetConfig(
                            k=4, h=8, packet_size=256, seed=10 + i
                        ),
                        deadline=20.0,
                    )
                    for i in range(3)
                )
            )
            # let the session finish its bookkeeping before closing
            for _ in range(100):
                if server.reports:
                    break
                await asyncio.sleep(0.05)
            await server.close()
            return results, server.reports

        results, reports = run_bounded(scenario())
        for result in results:
            assert result.data == data
            assert result.complete
            assert result.failed_groups == ()
        assert len(reports) == 1, "joins within the window must share"
        report = reports[0]
        assert report.members == 3
        assert report.completed == 3
        assert report.ejected == 0
        assert report.outcome == "complete"

    def test_distinct_groups_get_distinct_sessions(self):
        config = NetConfig(k=2, h=4, packet_size=128, seed=2)
        data = payload(3, config)

        async def scenario():
            server = NetServer(data, config)
            host, port = await server.start()
            results = await asyncio.gather(
                fetch(host, port, config=config, group=1, deadline=20.0),
                fetch(
                    host,
                    port,
                    config=NetConfig(k=2, h=4, packet_size=128, seed=3),
                    group=2,
                    deadline=20.0,
                ),
            )
            for _ in range(100):
                if len(server.reports) == 2:
                    break
                await asyncio.sleep(0.05)
            await server.close()
            return results, server.reports

        results, reports = run_bounded(scenario())
        assert all(result.data == data for result in results)
        assert len(reports) == 2
        assert {report.group for report in reports} == {1, 2}


class TestStrayBlockIndex:
    def test_stray_index_frame_does_not_block_delivery(self, monkeypatch):
        # Ahead of each group's first data packet the sender also emits a
        # CRC-valid payload frame whose block index lies past the FEC
        # block (n = k + h).  The receiver must drop it like an
        # out-of-range group: stored, it would make the group's decoder
        # raise on every later packet and the group would never deliver.
        config = NetConfig(k=4, h=4, packet_size=128, seed=3)
        data = payload(3, config)
        stray_index = config.k + config.h + 5
        strays = []
        fanout = SenderSession._fanout

        def fanout_with_strays(session, packet):
            if isinstance(packet, DataPacket) and packet.index == 0:
                stray = ParityPacket(packet.tg, stray_index, packet.payload)
                strays.append(stray)
                fanout(session, stray)
            fanout(session, packet)

        monkeypatch.setattr(SenderSession, "_fanout", fanout_with_strays)

        async def scenario():
            server = NetServer(data, config)
            host, port = await server.start()
            try:
                return await fetch(
                    host,
                    port,
                    config=NetConfig(k=4, h=4, packet_size=128, seed=4),
                    deadline=10.0,
                )
            finally:
                await server.close()

        result = run_bounded(scenario())
        assert len(strays) == result.n_groups == 3
        assert result.data == data
        assert result.complete


class TestChaosTransfer:
    """The headline scenario: 1000+ data packets through 10% chaos."""

    CONFIG = NetConfig(
        k=8,
        h=16,
        packet_size=256,
        seed=5,
        nak_retry=RetryPolicy(
            retries=10, base_delay=0.15, backoff=1.5, max_delay=1.0,
            jitter=0.25,
        ),
        member_timeout=20.0,
        session_deadline=55.0,
    )

    async def transfer(self, fetch_seeds=(6, 7)):
        config = self.CONFIG
        data = payload(125, config)  # 125 groups x k=8 -> 1000 data packets
        server = NetServer(data, config)
        await server.start()
        proxy = ChaosProxy(
            server.address,
            forward=chaos_plan(21),
            backward=chaos_plan(22),
        )
        host, port = await proxy.start()
        try:
            results = await asyncio.gather(
                *(
                    fetch(
                        host,
                        port,
                        config=NetConfig(
                            k=8, h=16, packet_size=256, seed=seed,
                            nak_retry=config.nak_retry,
                        ),
                        deadline=50.0,
                    )
                    for seed in fetch_seeds
                )
            )
        finally:
            await proxy.close()
            await server.close()
        return data, results, proxy.stats

    def test_bit_identical_delivery_under_chaos(self):
        data, results, stats = run_bounded(self.transfer())
        for result in results:
            assert result.data == data, "delivery must be bit-identical"
            assert result.failed_groups == ()
            assert result.delivered_groups == 125
            # bounded retries: the budget is never exceeded
            assert result.watchdog_exhaustions == 0
            budget = self.CONFIG.nak_retry.retries
            assert result.watchdog_retries <= 125 * budget
        # the chaos actually happened
        assert stats.get("forward.dropped", 0) > 50
        assert stats.get("forward.corrupted", 0) > 0
        assert stats.get("forward.duplicated", 0) > 0
        # corrupted frames were detected and dropped, not decoded
        assert any(result.frame_errors > 0 for result in results)

    def test_same_seed_runs_are_invariant(self):
        first = run_bounded(self.transfer(fetch_seeds=(6,)))
        second = run_bounded(self.transfer(fetch_seeds=(6,)))
        data_a, (result_a,), _ = first
        data_b, (result_b,), _ = second
        # payload generation, delivery and outcome are run-invariant; raw
        # timing counters (naks, duplicates seen) legitimately wobble with
        # OS scheduling, but the *contract* counters must agree
        assert data_a == data_b
        assert result_a.data == result_b.data == data_a
        assert result_a.failed_groups == result_b.failed_groups == ()
        assert result_a.delivered_groups == result_b.delivered_groups
        assert result_a.watchdog_exhaustions == 0
        assert result_b.watchdog_exhaustions == 0


class TestBlackoutDegradation:
    """Feedback darkness must produce typed, bounded, diagnosable failure."""

    def test_join_blackout_is_a_typed_stall(self):
        config = NetConfig(
            k=2,
            h=4,
            packet_size=128,
            seed=8,
            join_retry=RetryPolicy(
                retries=2, base_delay=0.1, backoff=2.0, max_delay=0.4,
                jitter=0.0,
            ),
        )
        data = payload(2, config)

        async def scenario():
            server = NetServer(data, config)
            await server.start()
            proxy = ChaosProxy(
                server.address,
                backward=ChaosPlan(seed=1, blackouts=((0.0, 999.0),)),
            )
            host, port = await proxy.start()
            try:
                with pytest.raises(TransferStalled) as excinfo:
                    await fetch(host, port, config=config, deadline=30.0)
            finally:
                await proxy.close()
                await server.close()
            return excinfo.value

        error = run_bounded(scenario())
        assert "join" in str(error)
        assert error.report is not None
        assert error.report.protocol == "net-np"
        assert error.report.seed == 8

    def test_feedback_blackout_mid_transfer_stalls_with_report(self):
        config = NetConfig(
            k=4,
            h=8,
            packet_size=128,
            seed=9,
            nak_retry=RetryPolicy(
                retries=3, base_delay=0.1, backoff=1.5, max_delay=0.4,
                jitter=0.2,
            ),
            member_timeout=1.0,
            session_deadline=30.0,
        )
        data = payload(40, config)

        async def scenario():
            server = NetServer(data, config)
            await server.start()
            # heavy forward loss forces repair rounds; the feedback path
            # goes dark shortly after the join handshake
            proxy = ChaosProxy(
                server.address,
                forward=ChaosPlan(seed=31, loss=0.35),
                backward=ChaosPlan(seed=32, blackouts=((0.15, 999.0),)),
            )
            host, port = await proxy.start()
            try:
                with pytest.raises(TransferStalled) as excinfo:
                    await fetch(host, port, config=config, deadline=30.0)
                # the sender must reap the silent member, not pin the
                # session open
                for _ in range(200):
                    if server.reports:
                        break
                    await asyncio.sleep(0.05)
            finally:
                await proxy.close()
                await server.close()
            return excinfo.value, server.reports

        error, reports = run_bounded(scenario())
        report = error.report
        assert report is not None
        stall = report.receivers[0]
        assert stall.missing_groups, "the stall names the missing groups"
        assert stall.watchdog_exhaustions > 0
        assert stall.watchdog_retries > 0
        assert report.seed == 9
        # JSON round-trip: the failure is journal-ready like the simulator's
        from repro.resilience.errors import failure_from_json

        rebuilt = failure_from_json(error.to_json())
        assert isinstance(rebuilt, TransferStalled)
        assert rebuilt.report.receivers[0].missing_groups == (
            stall.missing_groups
        )
        assert reports, "sender session must terminate via ejection"
        assert reports[0].outcome in ("degraded", "aborted")
        assert reports[0].ejected == 1

    def test_deadline_produces_transfer_timeout(self):
        config = NetConfig(
            k=2,
            h=4,
            packet_size=128,
            seed=11,
            join_retry=RetryPolicy(
                retries=50, base_delay=0.1, backoff=1.0, max_delay=0.1,
                jitter=0.0,
            ),
        )
        data = payload(2, config)

        async def scenario():
            server = NetServer(data, config)
            await server.start()
            proxy = ChaosProxy(
                server.address,
                backward=ChaosPlan(seed=2, blackouts=((0.0, 999.0),)),
            )
            host, port = await proxy.start()
            try:
                with pytest.raises(TransferTimeout) as excinfo:
                    await fetch(host, port, config=config, deadline=1.0)
            finally:
                await proxy.close()
                await server.close()
            return excinfo.value

        error = run_bounded(scenario())
        assert error.report is not None


class TestObsIntegration:
    def test_transport_counters_are_recorded(self):
        from repro import obs

        config = NetConfig(k=2, h=4, packet_size=128, seed=12)
        data = payload(4, config)

        async def scenario():
            server = NetServer(data, config)
            host, port = await server.start()
            result = await fetch(host, port, config=config, deadline=20.0)
            for _ in range(100):
                if server.reports:
                    break
                await asyncio.sleep(0.05)
            await server.close()
            return result

        with obs.capture() as registry:
            result = run_bounded(scenario())
            assert result.complete
            snapshot = registry.snapshot()
            spans = {record.name for record in obs.recorder().records}
        # deterministic stream counters: a clean 4-group k=2 transfer is
        # exactly 8 data frames and 4 polls on the wire, each counted once
        # by the sender and once by the receiver
        assert snapshot.value("net.frames_tx", kind="data") == 8
        assert snapshot.value("net.frames_rx", kind="data") == 8
        assert snapshot.value("net.frames_tx", kind="poll") == 4
        assert snapshot.value("net.frames_tx", kind="join") >= 1
        assert snapshot.value("net.frames_tx", kind="announce") >= 1
        assert snapshot.value("net.sessions", outcome="complete") == 1
        assert "net.fetch" in spans
        assert "net.serve.session" in spans

    def test_counters_invariant_across_same_seed_runs(self):
        from repro import obs

        config = NetConfig(k=2, h=4, packet_size=128, seed=13)
        data = payload(3, config)

        async def scenario():
            server = NetServer(data, config)
            host, port = await server.start()
            result = await fetch(host, port, config=config, deadline=20.0)
            await server.close()
            return result

        def stream_counters():
            with obs.capture() as registry:
                result = run_bounded(scenario())
                assert result.complete
                snapshot = registry.snapshot()
            # the deterministic subset: what went on the wire in-order
            # (completion-handshake retries are timing-dependent)
            return {
                kind: snapshot.value("net.frames_tx", kind=kind)
                for kind in ("data", "poll", "announce")
            }

        assert stream_counters() == stream_counters()
