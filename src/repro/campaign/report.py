"""Campaign outcomes: per-task results, retries, timings, quarantine.

:class:`CampaignReport` has two serialized faces:

* :meth:`CampaignReport.to_json` — the full operational record including
  attempt counts and wall-clock timings.
* :meth:`CampaignReport.canonical` — the *deterministic* subset: task ids,
  seeds, statuses, result digests and failure types.  This is what a
  campaign computed, stripped of how long it took and how often the
  scheduler had to retry around external interference — so an interrupted
  campaign resumed from its journal is bit-identical to an uninterrupted
  run with the same seeds, which the crash-consistency suite asserts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.records import JsonRecord

__all__ = ["TaskOutcome", "CampaignReport"]

#: wall-clock histogram bucket upper bounds (seconds); last bucket is open
_HISTOGRAM_EDGES = (0.1, 0.5, 1.0, 5.0, 30.0, 120.0, 600.0)


@dataclass(frozen=True)
class TaskOutcome(JsonRecord):
    """Terminal state of one campaign task."""

    task_id: str
    status: str  # "ok" | "quarantined"
    attempts: int
    #: wall-clock seconds summed over recorded attempts
    duration: float
    seed: int | None = None
    #: sha256 of the canonical result payload (None when quarantined)
    result_digest: str | None = None
    #: failure kind per failed attempt: "error" | "timeout" | "crash"
    failure_kinds: tuple[str, ...] = ()
    #: typed error class name of the final failure (quarantined tasks)
    error_type: str | None = None
    error_message: str | None = None

    def __post_init__(self) -> None:
        if self.status not in ("ok", "quarantined"):
            raise ValueError(f"unknown outcome status {self.status!r}")
        object.__setattr__(
            self, "failure_kinds", tuple(self.failure_kinds)
        )

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)


@dataclass
class CampaignReport(JsonRecord):
    """Everything a finished (possibly degraded) campaign has to say."""

    campaign_id: str
    outcomes: list[TaskOutcome] = field(default_factory=list)
    #: total supervisor wall clock, start to finish, this run only
    wall_clock: float = 0.0
    #: tasks satisfied straight from the journal on resume (no re-run)
    resumed_tasks: int = 0

    @property
    def quarantined(self) -> tuple[str, ...]:
        return tuple(
            o.task_id for o in self.outcomes if o.status == "quarantined"
        )

    @property
    def ok_tasks(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "ok")

    @property
    def status(self) -> str:
        """``"ok"`` iff every task delivered a result; else ``"degraded"``."""
        return "degraded" if self.quarantined else "ok"

    @property
    def total_retries(self) -> int:
        return sum(o.retries for o in self.outcomes)

    def wall_clock_histogram(self) -> list[tuple[str, int]]:
        """Per-task duration counts in fixed log-ish buckets."""
        counts = [0] * (len(_HISTOGRAM_EDGES) + 1)
        for outcome in self.outcomes:
            for i, edge in enumerate(_HISTOGRAM_EDGES):
                if outcome.duration < edge:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
        labels = [f"<{edge:g}s" for edge in _HISTOGRAM_EDGES] + [
            f">={_HISTOGRAM_EDGES[-1]:g}s"
        ]
        return list(zip(labels, counts))

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """The fields plus the derived ``status``, ``quarantined`` and
        ``total_retries`` (ignored again by :meth:`from_json`)."""
        return {
            **super().to_json(),
            "status": self.status,
            "quarantined": list(self.quarantined),
            "total_retries": self.total_retries,
        }

    def canonical(self) -> dict:
        """The deterministic subset: what was computed, not how it went.

        Excludes durations, attempt counts and resume bookkeeping — those
        legitimately differ when a campaign is interrupted and resumed —
        and keeps ids, seeds, statuses, result digests and failure types,
        which must not.
        """
        return {
            "campaign_id": self.campaign_id,
            "status": self.status,
            "tasks": [
                {
                    "task_id": o.task_id,
                    "seed": o.seed,
                    "status": o.status,
                    "result_digest": o.result_digest,
                    "error_type": o.error_type,
                }
                for o in sorted(self.outcomes, key=lambda o: o.task_id)
            ],
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True, indent=None)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def render_table(self) -> str:
        header = ["task", "status", "attempts", "time", "result"]
        rows = [header]
        for outcome in self.outcomes:
            if outcome.status == "ok":
                detail = (outcome.result_digest or "")[:12]
            else:
                detail = outcome.error_type or (
                    outcome.failure_kinds[-1] if outcome.failure_kinds else "?"
                )
            rows.append(
                [
                    outcome.task_id,
                    outcome.status,
                    str(outcome.attempts),
                    f"{outcome.duration:.2f}s",
                    detail,
                ]
            )
        widths = [
            max(len(row[col]) for row in rows) for col in range(len(header))
        ]
        lines = [
            f"campaign {self.campaign_id}: {len(self.outcomes)} tasks, "
            f"{self.ok_tasks} ok, {len(self.quarantined)} quarantined — "
            f"{self.status.upper()} "
            f"({self.total_retries} retries, "
            f"{self.resumed_tasks} resumed, wall clock {self.wall_clock:.1f}s)"
        ]
        for i, row in enumerate(rows):
            lines.append(
                "  ".join(
                    cell.ljust(width) for cell, width in zip(row, widths)
                ).rstrip()
            )
            if i == 0:
                lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
        histogram = "  ".join(
            f"[{label}: {count}]"
            for label, count in self.wall_clock_histogram()
            if count
        )
        if histogram:
            lines.append(f"wall-clock histogram: {histogram}")
        if self.quarantined:
            lines.append(f"quarantined: {' '.join(self.quarantined)}")
        return "\n".join(lines)
