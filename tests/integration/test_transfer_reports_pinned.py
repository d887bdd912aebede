"""Simulated transfers pinned field for field against a frozen fixture.

``tests/data/transfer_reports_v1.json`` holds ``TransferReport.to_json()``
for every case below (for the three that stall, the typed error's
``StallReport``), written by the engine that still queued one heap
entry per receiver delivery (``git show 1e184a2``).  Any change to the
event engine, the multicast network or the protocol machines must leave
every field equal — ``events_dispatched``, duplicates and completion
times included — so the fixture must never be regenerated from the code
it checks.

The ``eject`` cases were added later (``git show 6e00e9a``), before the
receiver's buffer accounting went from a per-packet sum to a running
count; they drive ``GroupAbort`` into receivers that still hold buffered
packets.

The ``__main__`` block is how the fixture was written
(``PYTHONPATH=src python -m tests.integration.test_transfer_reports_pinned``).
It only adds cases the fixture lacks and never rewrites a pinned entry;
run it for a new case, never to make this test pass for a change that
alters an existing one.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.protocols.harness import PROTOCOLS, run_transfer
from repro.protocols.np_protocol import NPConfig
from repro.resilience import FaultPlan, ReceiverCrash, TransferError
from repro.sim.loss import BernoulliLoss

FIXTURE = (
    pathlib.Path(__file__).resolve().parents[1] / "data" / "transfer_reports_v1.json"
)

N_RECEIVERS = 12
PAYLOAD = np.random.default_rng(1997).bytes(3000)

#: setup name -> run_transfer keyword arguments (loss model aside)
SETUPS = {
    "plain": dict(
        config=NPConfig(k=4, h=6, packet_size=128, packet_interval=0.005, slot_time=0.02),
    ),
    "lossy_feedback": dict(
        config=NPConfig(
            k=4, h=6, packet_size=128, packet_interval=0.005, slot_time=0.02,
            nak_watchdog=0.2, watchdog_retry_limit=20,
        ),
        feedback_loss=0.1,
        control_loss=0.1,
    ),
    "faults": dict(
        config=NPConfig(
            k=4, h=6, packet_size=128, packet_interval=0.005, slot_time=0.02,
            nak_watchdog=0.2, watchdog_retry_limit=20, max_rounds=60,
        ),
        fault_plan=FaultPlan(
            seed=5,
            corrupt_prob=0.03,
            duplicate_prob=0.05,
            jitter=0.01,
            crashes=(ReceiverCrash(receiver=3, at=0.1, downtime=0.15),),
        ),
        max_sim_time=400.0,
    ),
    # a two-round cap under heavy loss: the sender abandons groups that
    # receivers still hold undecoded packets for, so GroupAbort reaches
    # receivers with buffered state; the slower stream keeps later groups
    # arriving after the first aborts, so the buffer peaks they set
    # depend on what an abort released
    "eject": dict(
        config=NPConfig(
            k=4, h=6, packet_size=128, packet_interval=0.02, slot_time=0.02,
            max_rounds=2, degradation_policy="eject",
        ),
    ),
}

#: setup name -> per-receiver Bernoulli loss probability
LOSS_PROB = {"eject": 0.2}
DEFAULT_LOSS_PROB = 0.08

CASES = [(protocol, setup) for setup in SETUPS for protocol in sorted(PROTOCOLS)]


def case_id(protocol: str, setup: str) -> str:
    return f"{protocol}/{setup}"


def run_case(protocol: str, setup: str) -> dict:
    """The case's ``TransferReport`` as JSON, or the stall report of the
    typed error it raised (``n2`` and ``layered`` have no NAK watchdog, so
    lossy feedback can strand them)."""
    seed = 100 + sorted(PROTOCOLS).index(protocol) + 10 * list(SETUPS).index(setup)
    try:
        report = run_transfer(
            protocol,
            PAYLOAD,
            BernoulliLoss(N_RECEIVERS, LOSS_PROB.get(setup, DEFAULT_LOSS_PROB)),
            rng=seed,
            **SETUPS[setup],
        )
    except TransferError as error:
        return {"error": type(error).__name__, "stall_report": error.report.to_json()}
    return report.to_json()


def test_fixture_covers_every_case():
    pinned = json.loads(FIXTURE.read_text())
    assert sorted(pinned) == sorted(case_id(*case) for case in CASES)


@pytest.mark.parametrize("protocol,setup", CASES, ids=[case_id(*c) for c in CASES])
def test_report_matches_pinned_fixture(protocol, setup):
    pinned = json.loads(FIXTURE.read_text())[case_id(protocol, setup)]
    report = run_case(protocol, setup)
    assert sorted(report) == sorted(pinned)
    for name in pinned:
        assert report[name] == pinned[name], name


if __name__ == "__main__":
    reports = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    added = [case for case in CASES if case_id(*case) not in reports]
    for case in added:
        reports[case_id(*case)] = run_case(*case)
    FIXTURE.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    print(f"added {len(added)} reports to {FIXTURE}")
