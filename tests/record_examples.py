"""One example instance per JSON record type, every field off its default.

Shared by the record codec tests and by the frozen journal fixture
``tests/data/journal_records_v1.json``, which holds these same instances as
written by the hand-written ``to_json`` methods that preceded
:class:`repro.records.JsonRecord`.  Changing an example here therefore
needs the fixture record beside it to still describe the same object.
"""

from __future__ import annotations

from repro.campaign.report import CampaignReport, TaskOutcome
from repro.campaign.retry import RetryPolicy
from repro.campaign.tasks import CampaignTask
from repro.experiments.series import FigureResult, Series
from repro.net.session import SessionReport
from repro.obs.slo import DriftAlert
from repro.protocols.harness import TransferReport
from repro.resilience.faults import FaultPlan, OutageWindow, ReceiverCrash
from repro.resilience.report import (
    ReceiverStall,
    ResilienceSummary,
    StallReport,
)


def example_records() -> list:
    """Fresh instances, one per record type (nested records included)."""
    window = OutageWindow(start=0.25, duration=1.5, receivers=(1, 4))
    crash = ReceiverCrash(receiver=3, at=2.0, downtime=0.75)
    plan = FaultPlan(
        seed=17,
        corrupt_prob=0.01,
        duplicate_prob=0.02,
        jitter=0.003,
        outages=(window,),
        feedback_outages=(OutageWindow(start=1.0, duration=0.5),),
        crashes=(crash,),
        sender_stalls=(
            OutageWindow(start=3.0, duration=0.125, receivers=(0,)),
        ),
    )
    stall = ReceiverStall(
        receiver_id=5,
        missing_groups=(2, 9),
        last_progress_time=4.5,
        watchdog_retries=6,
        watchdog_exhaustions=1,
        crashes=2,
    )
    stall_report = StallReport(
        protocol="np",
        sim_time=12.5,
        events_dispatched=4321,
        pending_events=7,
        receivers=(stall,),
        abandoned_groups=(9,),
        injected_faults={"corrupt": 3, "duplicate": 1},
        seed=99,
        fault_plan=plan,
        stalled_by_domain={"root/a": (5,)},
    )
    summary = ResilienceSummary(
        fault_plan=plan,
        injected={"corrupt": 3},
        corrupt_discarded=3,
        watchdog_retries=8,
        watchdog_backoff_peak=0.4,
        crashes=1,
        degraded=True,
        abandoned_groups=(9,),
        ejected_receivers=(5,),
        ejected_by_domain={"root/a": (5,)},
    )
    transfer = TransferReport(
        protocol="np-adaptive",
        n_receivers=12,
        n_groups=4,
        total_data_packets=28,
        payload_bytes=14000,
        verified=True,
        completion_time=3.75,
        transmissions_per_packet=1.3125,
        data_sent=28,
        parity_sent=9,
        retransmissions_sent=2,
        polls_sent=6,
        naks_received=5,
        naks_sent_total=7,
        naks_suppressed_total=30,
        duplicates_total=4,
        packets_reconstructed_total=11,
        events_dispatched=5120,
        by_kind={"data": 28, "parity": 9},
        peak_buffered_groups=3,
        peak_buffered_packets=21,
        codec="xor",
        codec_symbols_multiplied=640,
        decode_cache_hits=10,
        decode_cache_misses=2,
        resilience=summary,
    )
    ok = TaskOutcome(
        task_id="fig05",
        status="ok",
        attempts=2,
        duration=1.25,
        seed=5,
        result_digest="ab" * 32,
        failure_kinds=("crash",),
    )
    quarantined = TaskOutcome(
        task_id="fig11",
        status="quarantined",
        attempts=3,
        duration=9.5,
        seed=11,
        result_digest="cd" * 32,
        failure_kinds=("timeout", "error", "timeout"),
        error_type="TaskTimeout",
        error_message="exceeded 30s",
    )
    series = Series(
        label="np",
        x=[1, 10, 100],
        y=[1.5, 2.25, 3.0],
        errors=[0.01, 0.02, 0.03],
        replications=[100, 200, 400],
    )
    return [
        window,
        crash,
        plan,
        stall,
        stall_report,
        summary,
        transfer,
        quarantined,
        CampaignReport(
            campaign_id="nightly",
            outcomes=[ok, quarantined],
            wall_clock=42.5,
            resumed_tasks=1,
        ),
        RetryPolicy(
            retries=3, base_delay=0.125, backoff=3.0, max_delay=8.0, jitter=0.5
        ),
        CampaignTask(
            task_id="cell-3",
            kind="callable",
            spec={
                "target": "repro.campaign.testing:tiny_figure",
                "kwargs": {"label": "x", "points": 3},
            },
            seed=3,
            timeout=60.0,
        ),
        series,
        FigureResult(
            figure_id="fig11",
            title="E[M] vs R",
            x_label="receivers R",
            y_label="E[M]",
            series=[series],
            notes="integer x axis",
        ),
        DriftAlert(
            slo="em[np]",
            observed=1.25,
            predicted=1.2,
            ratio=1.0416666666666667,
            tolerance=0.1,
            breached=True,
            context={"protocol": "np", "k": 7},
        ),
        SessionReport(
            session_id=0xDEADBEEF,
            group=2,
            outcome="degraded",
            members=4,
            completed=3,
            ejected=1,
            abandoned_groups=(6, 7),
            rounds_served=12,
            parities_sent=30,
            arq_fallbacks=2,
            naks_received=25,
            stale_naks=3,
            repolls=4,
            control_corrupt_discarded=1,
            duration=2.5,
            revived=1,
        ),
    ]
