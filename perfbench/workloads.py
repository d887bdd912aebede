"""The benchmark's four workloads.

Every workload is a closed loop with one op in flight: the next op starts
only after the previous one returned and was checked.  Inputs are a pure
function of ``(seed, op index)``; the program under test receives only the
generated inputs.  Each op returns an :class:`OpResult` carrying its wall
time, the work it did, the layer counts its public reports expose, and
every correctness failure it found.

* ``sim_np`` -- one simulated NP / adaptive-NP transfer (engine, network,
  loss draws, protocol machines, codec).
* ``mc_em`` -- two Monte-Carlo E[M] cells, under shared-tree and burst
  loss: no FEC, layered and integrated FEC (bulk loss sampling, no engine).
* ``net_clean`` -- one 1 MB fetch from a ``NetServer`` over loopback.
* ``net_lossy`` -- one 1 MB session of two receivers through a seeded
  chaos proxy dropping 5 % of datagrams each way.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import math
import selectors
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any
from unittest import mock

import numpy as np

from repro.analysis import fbt
from repro.campaign.retry import RetryPolicy
from repro.mc import integrated as mc_integrated
from repro.mc import layered as mc_layered
from repro.mc import nofec as mc_nofec
from repro.mc._common import PAPER_TIMING
from repro.net import ChaosPlan, ChaosProxy, NetConfig, NetServer, fetch
from repro.protocols import harness
from repro.protocols.np_protocol import NPConfig, NPReceiver
from repro.sim.loss import BernoulliLoss, FullBinaryTreeLoss, GilbertLoss
from repro.sim.network import MulticastNetwork

__all__ = ["OpResult", "Workload", "WORKLOADS", "REFERENCE_SEED", "load_reference"]

#: Seed whose op outcomes are pinned in ``reference.json``.  The warm-up
#: ops of every run use this seed's inputs, so the pin is checked on every
#: run whatever ``--seed`` is.
REFERENCE_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _seeds(seed: int, index: int, count: int) -> list[int]:
    """``count`` independent 63-bit seeds for op ``index`` of run ``seed``."""
    state = np.random.SeedSequence([seed, index]).generate_state(count, np.uint64)
    return [int(value >> np.uint64(1)) for value in state]


@dataclass
class OpResult:
    """What one op did, and whether it did it right."""

    wall_s: float
    #: receiver-packets delivered (modelled ones for ``mc_em``)
    packets: int
    #: MC replications (``mc_em``) or transfers (the others) in the op
    replications: int
    #: transmissions and data packets, for the E[M] ratio
    transmissions: float
    data_packets: int
    #: verified payload bytes times receivers, and the wall time they took
    goodput_bytes: int = 0
    transfer_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    #: exact outcome compared with ``reference.json`` for the reference seed
    outcome: Any = None
    extra: dict = field(default_factory=dict)


class Workload:
    """Base class: inputs, the run-long resources, and one op."""

    name = ""
    #: the op time this workload was sized for on a 2-core host; the op
    #: count of a run is ``seconds / nominal_op_s``, fixed for a given
    #: ``--seconds`` so the parent and the change do the same work
    nominal_op_s = 1.0
    #: data packets per transmission group (for the Section-5 view)
    k = 1
    #: layers a traced run must see called, or it fails
    required_layers: tuple[str, ...] = ()
    #: the benchmark's own selector, for workloads running an event loop
    selector: selectors.BaseSelector | None = None

    def __enter__(self) -> "Workload":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def make_input(self, seed: int, index: int) -> Any:
        raise NotImplementedError

    def run_op(self, op_input: Any) -> OpResult:
        raise NotImplementedError

    def check_run(self, results: list[OpResult]) -> None:
        """Checks over all ops of a pass; adds to the failures of the ops
        they implicate."""


# ----------------------------------------------------------------------
# sim_np
# ----------------------------------------------------------------------
#: TransferReport fields that make up an op's outcome digest.  The event
#: count is left out: an engine change may dispatch fewer events for the
#: same transfer.
OUTCOME_FIELDS = (
    "protocol",
    "n_receivers",
    "n_groups",
    "total_data_packets",
    "payload_bytes",
    "verified",
    "completion_time",
    "transmissions_per_packet",
    "data_sent",
    "parity_sent",
    "retransmissions_sent",
    "polls_sent",
    "naks_received",
    "naks_sent_total",
    "naks_suppressed_total",
    "duplicates_total",
    "packets_reconstructed_total",
)


def transfer_digest(report) -> str:
    outcome = {name: getattr(report, name) for name in OUTCOME_FIELDS}
    blob = json.dumps(outcome, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:32]


@dataclass(frozen=True)
class TransferInput:
    protocol: str
    payload: bytes
    rng_seed: int


class SimNP(Workload):
    name = "sim_np"
    nominal_op_s = 0.55
    k = 7
    required_layers = ("engine", "network", "loss", "protocols", "fec", "galois", "crc")
    receivers = 120
    loss = 0.05
    payload_bytes = 60_000
    #: the abl_adaptive geometry
    config = NPConfig(k=7, h=32, packet_size=512, packet_interval=0.01)
    protocols = ("np", "np-adaptive")

    def __enter__(self) -> "SimNP":
        # The harness verifies deliveries itself; the benchmark also keeps
        # every receiver's reassembled bytes and each simulated network, so
        # it can check the bytes and count deliveries on its own.
        self._delivered: list[bytes] = []
        self._networks: list[MulticastNetwork] = []
        deliver = NPReceiver.delivered_data
        init = MulticastNetwork.__init__

        def delivered_data(receiver, *args, **kwargs):
            blob = deliver(receiver, *args, **kwargs)
            self._delivered.append(blob)
            return blob

        def network_init(network, *args, **kwargs):
            init(network, *args, **kwargs)
            self._networks.append(network)

        self._hooks = contextlib.ExitStack()
        self._hooks.enter_context(
            mock.patch.object(NPReceiver, "delivered_data", delivered_data)
        )
        self._hooks.enter_context(
            mock.patch.object(MulticastNetwork, "__init__", network_init)
        )
        return self

    def __exit__(self, *exc) -> None:
        self._hooks.close()

    def make_input(self, seed: int, index: int) -> TransferInput:
        payload_seed, transfer_seed = _seeds(seed, index, 2)
        return TransferInput(
            protocol=self.protocols[index % len(self.protocols)],
            payload=np.random.default_rng(payload_seed).bytes(self.payload_bytes),
            rng_seed=transfer_seed,
        )

    def run_op(self, op: TransferInput) -> OpResult:
        self._delivered.clear()
        self._networks.clear()
        start = time.perf_counter()
        report = harness.run_transfer(
            op.protocol,
            op.payload,
            BernoulliLoss(self.receivers, self.loss),
            self.config,
            rng=op.rng_seed,
        )
        wall = time.perf_counter() - start
        failures = check_deliveries(op.payload, self._delivered, self.receivers)
        if not report.verified:
            failures.append("report not verified")
        transmissions = (
            report.data_sent + report.parity_sent + report.retransmissions_sent
        )
        if transmissions < report.total_data_packets:
            failures.append("fewer transmissions than data packets")
        return OpResult(
            wall_s=wall,
            packets=report.total_data_packets * self.receivers,
            replications=1,
            transmissions=transmissions,
            data_packets=report.total_data_packets,
            goodput_bytes=len(op.payload) * (self.receivers if not failures else 0),
            transfer_s=wall,
            counts={
                "engine.events": report.events_dispatched,
                "network.deliveries": sum(
                    net.stats.downstream_delivered + net.stats.feedback_delivered
                    for net in self._networks
                ),
                "protocols.naks_sent": report.naks_sent_total,
                "protocols.naks_suppressed": report.naks_suppressed_total,
            },
            failures=failures,
            outcome=transfer_digest(report),
        )


def check_deliveries(payload: bytes, delivered: list[bytes], receivers: int) -> list[str]:
    """Every receiver must hold exactly the payload."""
    failures = []
    if len(delivered) != receivers:
        failures.append(f"{len(delivered)} of {receivers} receivers delivered")
    wrong = sum(1 for blob in delivered if blob != payload)
    if wrong:
        failures.append(f"{wrong} receivers delivered wrong bytes")
    return failures


# ----------------------------------------------------------------------
# mc_em
# ----------------------------------------------------------------------
#: Allowed distance of a no-FEC FBT mean from the closed form, in 95 %
#: half-widths.  One half-width would fail 5 % of correct cells; three
#: (about 5.9 standard errors) fail a correct cell with probability ~1e-8.
CI_WIDTHS = 3.0


class MCEm(Workload):
    """One op is a pair of E[M] cells, one per loss model, so that every op
    costs the same; alternating cheap and dear ops would put the median op
    time on the edge between two modes."""

    name = "mc_em"
    nominal_op_s = 0.23
    k = 7
    required_layers = ("mc", "loss")
    depth = 10  # R = 1024
    loss_p = 0.01
    h = 1
    mean_burst = 2.0
    replications = 100

    def make_input(self, seed: int, index: int) -> list[int]:
        return _seeds(seed, index, 6)

    def loss_models(self):
        return (
            FullBinaryTreeLoss(self.depth, self.loss_p),
            GilbertLoss.from_loss_and_burst(
                2**self.depth, self.loss_p, self.mean_burst, PAPER_TIMING.packet_interval
            ),
        )

    def run_op(self, seeds: list[int]) -> OpResult:
        reps, k = self.replications, self.k
        fbt_model, gilbert_model = models = self.loss_models()
        start = time.perf_counter()
        results = []
        for model, (s_nofec, s_layered, s_rounds) in zip(models, (seeds[:3], seeds[3:])):
            results += [
                mc_nofec.simulate_nofec(model, reps, rng=s_nofec),
                mc_layered.simulate_layered(model, k, self.h, reps, rng=s_layered),
                mc_integrated.simulate_integrated_rounds(model, k, reps, rng=s_rounds),
            ]
        wall = time.perf_counter() - start
        failures = []
        if not all(math.isfinite(r.mean) and r.mean >= 1.0 for r in results):
            failures.append("E[M] below 1 or not finite")
        if any(r.replications != reps for r in results):
            failures.append("replication count differs from the request")
        nofec = results[0]
        exact = fbt.expected_transmissions_nofec(self.depth, self.loss_p)
        if abs(nofec.mean - exact) > CI_WIDTHS * nofec.ci95_halfwidth:
            failures.append(
                f"FBT no-FEC mean {nofec.mean} is more than {CI_WIDTHS} "
                f"half-widths from the closed form {exact}"
            )
        per_rep = (1, k, k) * len(models)  # data packets one replication models
        return OpResult(
            wall_s=wall,
            packets=reps * sum(per_rep) * fbt_model.n_receivers,
            replications=reps * len(results),
            transmissions=sum(r.mean * reps * n for r, n in zip(results, per_rep)),
            data_packets=reps * sum(per_rep),
            failures=failures,
            outcome=[r.mean for r in results],
            extra={"fbt_nofec": (nofec.mean, nofec.stderr)},
        )

    def check_run(self, results: list[OpResult]) -> None:
        """The pooled FBT no-FEC mean of the pass against the closed form;
        a miss fails every op of the pass."""
        if not results:
            return
        cells = [r.extra["fbt_nofec"] for r in results]
        mean = sum(m for m, _ in cells) / len(cells)
        stderr = math.sqrt(sum(s * s for _, s in cells)) / len(cells)
        exact = fbt.expected_transmissions_nofec(self.depth, self.loss_p)
        if abs(mean - exact) > CI_WIDTHS * 1.96 * stderr:
            for result in results:
                result.failures.append(
                    f"pooled FBT no-FEC mean {mean} over {len(cells)} cells is "
                    f"more than {CI_WIDTHS} half-widths from the closed form {exact}"
                )


# ----------------------------------------------------------------------
# net_clean / net_lossy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SessionInput:
    #: the 1 MB payload is drawn at the start of the op, outside its timer,
    #: so a run's inputs do not dominate the peak resident memory
    payload_seed: int
    server: NetConfig
    receivers: tuple[NetConfig, ...]
    chaos: tuple[ChaosPlan, ChaosPlan] | None


#: a stray kernel drop costs 0.1 s of NAK timer instead of 0.25 s
NAK_RETRY = RetryPolicy(retries=8, base_delay=0.1, backoff=1.6, max_delay=1.0, jitter=0.25)
FETCH_DEADLINE_S = 20.0
#: how long an op waits for the sender's sessions to finish after the
#: fetches returned, and for leftover tasks after closing
SESSION_GRACE_S = 10.0
SETTLE_S = 2.0


class NetWorkload(Workload):
    """One server (and proxy) per op, all on one asyncio loop."""

    k = 8
    required_layers = ("wire", "session", "io", "fec", "galois", "crc", "pacer")
    n_groups = 125  # x k=8 x 1 KB = 1 MB
    packet_size = 1024
    receivers = 1
    chaos_loss = 0.0

    def config(self, seed: int) -> NetConfig:
        return NetConfig(k=self.k, h=16, packet_size=self.packet_size, seed=seed,
                         nak_retry=NAK_RETRY)

    def __enter__(self) -> "NetWorkload":
        self.selector = selectors.DefaultSelector()
        self._runner = asyncio.Runner(
            loop_factory=lambda: asyncio.SelectorEventLoop(self.selector)
        )
        self._runner.get_loop()
        # the loop's own wake-up socket is the only registration between ops
        self._idle_fds = len(self.selector.get_map())
        return self

    def __exit__(self, *exc) -> None:
        self._runner.close()

    def make_input(self, seed: int, index: int) -> SessionInput:
        seeds = _seeds(seed, index, 4 + self.receivers)
        chaos = None
        if self.chaos_loss:
            chaos = (
                ChaosPlan(seed=seeds[2] % 2**32, loss=self.chaos_loss),
                ChaosPlan(seed=seeds[3] % 2**32, loss=self.chaos_loss),
            )
        return SessionInput(
            payload_seed=seeds[0],
            server=self.config(seeds[1]),
            receivers=tuple(self.config(s) for s in seeds[4:]),
            chaos=chaos,
        )

    def run_op(self, op: SessionInput) -> OpResult:
        return self._runner.run(self._op(op))

    async def _op(self, op: SessionInput) -> OpResult:
        payload = np.random.default_rng(op.payload_seed).bytes(
            self.n_groups * self.k * self.packet_size
        )
        start = time.perf_counter()
        server = NetServer(payload, op.server)
        proxy = None
        failures: list[str] = []
        counts: dict[str, float] = {}
        try:
            await server.start()
            host, port = server.address
            if op.chaos is not None:
                proxy = ChaosProxy(server.address, forward=op.chaos[0], backward=op.chaos[1])
                host, port = await proxy.start()
            fetch_start = time.perf_counter()
            results = await asyncio.gather(
                *(
                    fetch(host, port, config=config, deadline=FETCH_DEADLINE_S)
                    for config in op.receivers
                ),
                return_exceptions=True,
            )
            transfer_s = time.perf_counter() - fetch_start
            failures += await _sessions_finished(server)
        finally:
            if proxy is not None:
                await proxy.close()
                counts["chaos.datagrams"] = sum(
                    n for key, n in proxy.stats.items()
                    if key.endswith((".forwarded", ".dropped"))
                )
                counts["chaos.dropped"] = sum(
                    n for key, n in proxy.stats.items() if key.endswith(".dropped")
                )
            await server.close()
        failures += await self._leftovers()
        wall = time.perf_counter() - start

        fetched = [r for r in results if not isinstance(r, BaseException)]
        for error in results:
            if isinstance(error, BaseException):
                failures.append(f"fetch raised {type(error).__name__}: {error}")
        failures += check_deliveries(payload, [r.data for r in fetched], self.receivers)
        if not all(r.complete for r in fetched):
            failures.append("a fetch ended with failed groups")
        reports = server.reports
        if not reports or any(r.outcome != "complete" for r in reports):
            failures.append(
                "sessions did not all end complete: "
                f"{[r.outcome for r in reports]}"
            )
        if sum(r.members for r in reports) != self.receivers:
            failures.append("session membership differs from the receiver count")
        # E[M] of the emulated multicast: each session streams the data once
        # to its members, plus its parity repairs and ARQ resends
        data_packets = sum(self.n_groups * self.k for _ in reports)
        transmissions = sum(
            self.n_groups * self.k + r.parities_sent + r.arq_fallbacks for r in reports
        )
        if data_packets and transmissions < data_packets:
            failures.append("tx_per_pkt below 1")
        verified = sum(1 for r in fetched if r.data == payload)
        counts.update(
            {
                "session.repairs_tx": sum(r.parities_sent + r.arq_fallbacks for r in reports),
                "session.naks_rx": sum(r.naks_received for r in reports),
                "session.nak_retries": sum(r.watchdog_retries for r in fetched),
                "session.frames_rx": sum(r.frames_received for r in fetched),
                "session.useful_rx": verified * self.n_groups * self.k,
            }
        )
        return OpResult(
            wall_s=wall,
            packets=verified * self.n_groups * self.k,
            replications=1,
            transmissions=transmissions,
            data_packets=data_packets,
            goodput_bytes=verified * len(payload),
            transfer_s=transfer_s,
            counts=counts,
            failures=failures,
        )

    async def _leftovers(self) -> list[str]:
        """Wait briefly for stray tasks, then insist nothing is left over."""
        current = asyncio.current_task()
        deadline = time.perf_counter() + SETTLE_S
        while True:
            await asyncio.sleep(0)
            tasks = asyncio.all_tasks() - {current}
            if not tasks or time.perf_counter() > deadline:
                break
            await asyncio.sleep(0.001)
        failures = []
        if tasks:
            failures.append(f"{len(tasks)} tasks left over after the op")
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        open_fds = len(self.selector.get_map()) - self._idle_fds
        if open_fds:
            failures.append(f"{open_fds} sockets left registered after the op")
        if threading.active_count() != 1:
            failures.append(f"{threading.active_count() - 1} threads besides the main one")
        return failures


async def _sessions_finished(server: NetServer) -> list[str]:
    deadline = time.perf_counter() + SESSION_GRACE_S
    while server.sessions or not server.reports:
        if time.perf_counter() > deadline:
            return ["sender sessions did not finish"]
        await asyncio.sleep(0.002)
    return []


class NetClean(NetWorkload):
    name = "net_clean"
    nominal_op_s = 0.43


class NetLossy(NetWorkload):
    name = "net_lossy"
    nominal_op_s = 0.7
    required_layers = NetWorkload.required_layers + ("chaos",)
    #: four receivers saturate the CPU of a 2-core host at this pace (the
    #: proxy runs in the same process), and under contention from other
    #: processes their losses snowball into NAK and repair storms; two
    #: keep the CPU below half busy and the op times steady
    receivers = 2
    chaos_loss = 0.05

    def config(self, seed: int) -> NetConfig:
        # joins retry inside the gathering window so a lost join rarely
        # splits the receivers over two sessions, and six completes make a
        # lost fin-ack handshake (0.05^6) practically impossible
        return NetConfig(
            k=self.k,
            h=16,
            packet_size=self.packet_size,
            seed=seed,
            nak_retry=NAK_RETRY,
            join_window=0.1,
            join_retry=RetryPolicy(
                retries=4, base_delay=0.04, backoff=2.0, max_delay=0.5, jitter=0.25
            ),
            complete_repeats=6,
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SimNP, MCEm, NetClean, NetLossy)
}
