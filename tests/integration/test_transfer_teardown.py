"""A finished transfer is freed by reference counting alone.

The protocol machines, the network's handlers and the simulator's queued
timers refer to one another.  ``run_transfer`` breaks those cycles when it
returns or raises, so none of the transfer's objects waits for the cyclic
garbage collector: left to it, a long run of transfers piles up memory
between collector passes.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.protocols.harness import PROTOCOLS, run_transfer
from repro.protocols.np_protocol import NPConfig
from repro.resilience import FaultInjector, FaultPlan, ReceiverCrash, TransferError
from repro.sim.engine import Simulator
from repro.sim.loss import BernoulliLoss
from repro.sim.network import MulticastNetwork

CONFIG = NPConfig(
    k=4, h=6, packet_size=128, packet_interval=0.005, slot_time=0.02,
    nak_watchdog=0.2, watchdog_retry_limit=20,
)
PAYLOAD = np.random.default_rng(7).bytes(2000)
FAULTS = FaultPlan(
    seed=3, duplicate_prob=0.05, jitter=0.01,
    crashes=(ReceiverCrash(receiver=1, at=0.05, downtime=0.1),),
)


def leftover_cycles(protocol: str, fault_plan: FaultPlan | None) -> list[str]:
    """Names of the transfer objects the cyclic collector had to free."""
    transfer_types = (Simulator, MulticastNetwork, FaultInjector, *PROTOCOLS[protocol])
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        try:
            run_transfer(
                protocol, PAYLOAD, BernoulliLoss(6, 0.08), CONFIG, rng=11,
                fault_plan=fault_plan, max_sim_time=100.0,
            )
        except TransferError:
            pass  # a stalled transfer must be freed just the same
        gc.collect()
        return sorted(
            type(obj).__name__ for obj in gc.garbage if isinstance(obj, transfer_types)
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.mark.parametrize("faults", [False, True], ids=["plain", "faults"])
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_transfer_leaves_no_cycles(protocol, faults):
    assert leftover_cycles(protocol, FAULTS if faults else None) == []
