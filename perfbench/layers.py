"""Which entry points belong to which layer, and the per-layer report.

:func:`install` wraps every layer's entry points for a traced pass (the
same set on every workload, so a layer a workload should not touch reads
zero calls there).  :func:`layer_metrics` turns the tracer's leaves and the
ops' public counts into the per-layer metrics, and :func:`section5` gives
the same costs per packet in the paper's Section-5 terms.
"""

from __future__ import annotations

import socket
import time

import numpy as np

from repro.analysis.throughput import PAPER_COSTS
from repro.fec.code import ErasureCode
from repro.galois import matrix as gf_matrix
from repro.galois.field import GaloisField
from repro.mc import integrated as mc_integrated
from repro.mc import layered as mc_layered
from repro.mc import nofec as mc_nofec
from repro.net import chaos, endpoints, session, supervision, wire
from repro.protocols import packets
from repro.protocols.np_protocol import NPSender
from repro.sim.engine import Simulator
from repro.sim.loss import LossModel, LossSampler
from repro.sim.network import MulticastNetwork

from perfbench.tracer import Tracer

__all__ = ["install", "check_coverage", "layer_metrics", "section5", "PER_LAYER"]

_CODEC_STATS = ("parities_produced", "packets_decoded", "decode_cache_hits", "decode_cache_misses")


def _stats_before(args, kwargs):
    stats = args[0].stats
    return tuple(getattr(stats, name) for name in _CODEC_STATS)


def install(tracer: Tracer, selector=None) -> None:
    """Wrap every layer's entry points; :meth:`Tracer.restore` undoes it."""
    counts = tracer.counts

    def stats_after(before, args, kwargs, result):
        stats = args[0].stats
        for name, old in zip(_CODEC_STATS, before):
            counts[f"fec.{name}"] += getattr(stats, name) - old

    # sim.engine: dispatch and queueing.  The callbacks it dispatches are
    # protocol code, so each is wrapped into "protocols" when scheduled.
    tracer.patch_method(Simulator, "step", "engine")
    tracer.patch_method(Simulator, "schedule", "engine")
    schedule_at = Simulator.schedule_at

    def schedule_at_traced(sim, when, callback):
        return schedule_at(sim, when, tracer.wrap("protocols", callback))

    tracer.patch_attr(Simulator, "schedule_at", tracer.wrap("engine", schedule_at_traced))
    tracer.patch_method(NPSender, "start", "protocols")

    for name in ("multicast", "multicast_control", "multicast_feedback", "unicast_feedback"):
        tracer.patch_method(MulticastNetwork, name, "network")
    tracer.patch_method(LossModel, "sample_at", "loss")
    tracer.patch_method(LossSampler, "sample", "loss")
    tracer.patch_function(packets, "control_checksum_of", "crc")

    for name in ("encode", "encode_block", "encode_many", "encode_blocks", "encode_symbols"):
        tracer.patch_method(
            ErasureCode, name, "fec.encode", before=_stats_before, after=stats_after
        )
    for name in ("decode", "decode_symbols"):
        tracer.patch_method(
            ErasureCode, name, "fec.decode", before=_stats_before, after=stats_after
        )
    for name in ("decodable_from", "decodable_mask"):
        tracer.patch_method(ErasureCode, name, "fec.plan")

    def product_terms(args, kwargs):
        # (r, s) @ (s,) | (s, c) | (B, s, c): r * s * c * B terms
        counts["galois.product_terms"] += np.shape(args[1])[0] * np.size(args[2])

    tracer.patch_method(GaloisField, "matmul", "galois.matmul", before=product_terms)
    tracer.patch_function(gf_matrix, "invert", "galois.invert")

    def replications(token, args, kwargs, result):
        counts["mc.replications"] += result.replications

    for module, name in (
        (mc_nofec, "simulate_nofec"),
        (mc_layered, "simulate_layered"),
        (mc_integrated, "simulate_integrated_rounds"),
    ):
        tracer.patch_function(module, name, "mc", after=replications)

    tracer.patch_function(wire, "encode_frame", "wire.encode")
    tracer.patch_function(wire, "decode_frame", "wire.decode")

    tracer.patch_method(endpoints._ServerProtocol, "datagram_received", "session.sender")
    for name in ("__init__", "on_frame", "_fanout"):
        tracer.patch_method(session.SenderSession, name, "session.sender")
    for name in ("datagram_received", "solicit", "assemble"):
        tracer.patch_method(endpoints._ReceiverProtocol, name, "session.receiver")
    for cls in (chaos._ListenProtocol, chaos._UpstreamProtocol):
        tracer.patch_method(cls, "datagram_received", "chaos")

    gate = supervision.Pacer.gate

    async def gate_traced(pacer):
        slept = pacer.sleeps
        start = time.perf_counter()
        await gate(pacer)
        if pacer.sleeps != slept:
            counts["pacer.sleeps"] += 1
            counts["pacer.sleep_s"] += time.perf_counter() - start

    tracer.patch_attr(supervision.Pacer, "gate", gate_traced)

    # io: the socket calls asyncio's datagram transports make, and the time
    # the loop spends blocked in the benchmark's own selector
    for name in ("send", "sendto"):
        tracer.patch_attr(socket.socket, name, tracer.wrap("io.send", getattr(socket.socket, name)))
    tracer.patch_attr(socket.socket, "recvfrom", tracer.wrap("io.recv", socket.socket.recvfrom))
    if selector is not None:
        tracer.patch_attr(selector, "select", tracer.wrap("io.idle", selector.select))


#: (metric, unit) of the traced run, in report order.  Self times are
#: shares of the traced wall time, so that a layer a workload never calls
#: reads 0 % rather than a time that is the same on every run.
PER_LAYER = (
    ("engine.events", "count"),
    ("engine.self_pct", "%"),
    ("network.deliveries", "count"),
    ("network.self_pct", "%"),
    ("loss.sample_calls", "count"),
    ("loss.self_pct", "%"),
    ("protocols.self_pct", "%"),
    ("protocols.naks_sent", "count"),
    ("protocols.nak_suppression_ratio", "ratio"),
    ("protocols.control_crc_pct", "%"),
    ("fec.encode_calls", "count"),
    ("fec.decode_calls", "count"),
    ("fec.self_pct", "%"),
    ("fec.inverse_cache_hit_ratio", "ratio"),
    ("galois.matmul_calls", "count"),
    ("galois.product_terms", "count"),
    ("galois.kernel_pct", "%"),
    ("mc.replications", "count"),
    ("mc.self_pct", "%"),
    ("wire.frames_encoded", "count"),
    ("wire.frames_decoded", "count"),
    ("wire.frame_errors", "count"),
    ("wire.self_pct", "%"),
    ("session.self_pct", "%"),
    ("session.repairs_tx", "count"),
    ("session.naks_rx", "count"),
    ("session.nak_retries", "count"),
    ("session.useful_rx_ratio", "ratio"),
    ("pacer.sleeps", "count"),
    ("pacer.sleep_pct", "%"),
    ("io.select_idle_pct", "%"),
    ("io.sendto_calls", "count"),
    ("io.sendto_pct", "%"),
    ("io.recv_calls", "count"),
    ("chaos.datagrams", "count"),
    ("chaos.dropped", "count"),
    ("chaos.self_pct", "%"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("unattributed_s", "s"),
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, untraced_wall_s: float) -> dict:
    """Every :data:`PER_LAYER` metric of a traced pass lasting ``wall_s``."""
    leaves, counts = tracer.leaves, tracer.counts
    layer_self = tracer.layer_self_s()

    def calls(leaf: str) -> int:
        return leaves[leaf].calls if leaf in leaves else 0

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall_s

    def self_pct(layer: str) -> float:
        return pct(layer_self.get(layer, 0.0))

    def leaf_pct(leaf: str) -> float:
        return pct(leaves[leaf].self_s) if leaf in leaves else 0.0

    naks = counts["protocols.naks_sent"]
    hits, misses = counts["fec.decode_cache_hits"], counts["fec.decode_cache_misses"]
    values = {
        "engine.events": counts["engine.events"],
        "engine.self_pct": self_pct("engine"),
        "network.deliveries": counts["network.deliveries"],
        "network.self_pct": self_pct("network"),
        "loss.sample_calls": calls("loss"),
        "loss.self_pct": self_pct("loss"),
        "protocols.self_pct": self_pct("protocols"),
        "protocols.naks_sent": naks,
        "protocols.nak_suppression_ratio": _ratio(
            counts["protocols.naks_suppressed"], naks + counts["protocols.naks_suppressed"]
        ),
        "protocols.control_crc_pct": self_pct("crc"),
        "fec.encode_calls": calls("fec.encode"),
        "fec.decode_calls": calls("fec.decode"),
        "fec.self_pct": self_pct("fec"),
        "fec.inverse_cache_hit_ratio": _ratio(hits, hits + misses),
        "galois.matmul_calls": calls("galois.matmul"),
        "galois.product_terms": counts["galois.product_terms"],
        "galois.kernel_pct": self_pct("galois"),
        "mc.replications": counts["mc.replications"],
        "mc.self_pct": self_pct("mc"),
        "wire.frames_encoded": calls("wire.encode"),
        "wire.frames_decoded": calls("wire.decode"),
        "wire.frame_errors": leaves["wire.decode"].errors if "wire.decode" in leaves else 0,
        "wire.self_pct": self_pct("wire"),
        "session.self_pct": self_pct("session"),
        "session.repairs_tx": counts["session.repairs_tx"],
        "session.naks_rx": counts["session.naks_rx"],
        "session.nak_retries": counts["session.nak_retries"],
        "session.useful_rx_ratio": _ratio(
            counts["session.useful_rx"], counts["session.frames_rx"]
        ),
        "pacer.sleeps": counts["pacer.sleeps"],
        "pacer.sleep_pct": pct(counts["pacer.sleep_s"]),
        "io.select_idle_pct": leaf_pct("io.idle"),
        "io.sendto_calls": calls("io.send"),
        "io.sendto_pct": leaf_pct("io.send"),
        "io.recv_calls": calls("io.recv"),
        "chaos.datagrams": counts["chaos.datagrams"],
        "chaos.dropped": counts["chaos.dropped"],
        "chaos.self_pct": self_pct("chaos"),
        "trace.wall_s": wall_s,
        "trace.overhead_s": wall_s - untraced_wall_s,
        "unattributed_s": wall_s - sum(layer_self.values()),
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def check_coverage(tracer: Tracer, layers: tuple[str, ...]) -> list[str]:
    """A layer the workload must use but that recorded no call is an error:
    its call site moved out from under the wrappers."""
    called = {leaf.layer for leaf in tracer.leaves.values() if leaf.calls}
    if tracer.counts["pacer.sleeps"]:
        called.add("pacer")
    return [
        f"layer {layer!r} recorded no calls; its entry points moved"
        for layer in layers
        if layer not in called
    ]


def section5(tracer: Tracer, k: int) -> dict:
    """Layer costs per packet in the paper's Section-5 terms (microseconds),
    next to the 1997 ``ProcessingCosts`` defaults.

    * ``c_e``: encode time per parity produced, per data packet it covers
      (a TG with ``h`` parities costs ``k * h * c_e``);
    * ``c_d``: decode time per reconstructed packet, per data packet of
      the TG (``k * c_d`` each);
    * ``X_p`` / ``Y_p``: wire codec, socket and session time per frame
      sent / received.  On ``net_lossy`` the socket calls include the
      chaos proxy's, which runs in the same process.
    """
    leaves, counts = tracer.leaves, tracer.counts

    def total(leaf: str) -> float:
        return leaves[leaf].total_s if leaf in leaves else 0.0

    def own(*names: str) -> float:
        return sum(leaves[n].self_s for n in names if n in leaves)

    def per(seconds: float, n: float) -> float | None:
        return 1e6 * seconds / n if n else None

    sent = leaves["wire.encode"].calls if "wire.encode" in leaves else 0
    received = leaves["wire.decode"].calls if "wire.decode" in leaves else 0
    return {
        "unit": "us",
        "c_e": per(total("fec.encode"), counts["fec.parities_produced"] * k),
        "c_d": per(total("fec.decode"), counts["fec.packets_decoded"] * k),
        "X_p": per(own("wire.encode", "io.send", "session.sender"), sent),
        "Y_p": per(own("wire.decode", "io.recv", "session.receiver"), received),
        "paper_1997": {
            "c_e": PAPER_COSTS.encode_constant * 1e6,
            "c_d": PAPER_COSTS.decode_constant * 1e6,
            "X_p": PAPER_COSTS.packet_send * 1e6,
            "Y_p": PAPER_COSTS.packet_receive * 1e6,
        },
    }
