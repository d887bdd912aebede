"""Drift SLOs: live counters checked against the paper's closed forms.

The reproduction's analytical models double as service-level objectives:
a healthy run's observed repair cost should track ``E[M]`` (Equation 6)
and its goodput should track the Section-5 throughput model (Figures
17/18).  Each SLO reads a :class:`~repro.obs.metrics.MetricsSnapshot`,
computes the observed value from live counters, the predicted value from
the matching closed form, and emits a typed :class:`DriftAlert` whose
``breached`` flag fires when ``|observed/predicted - 1|`` exceeds the
tolerance.

:class:`DriftMonitor` is the aggregation point: the telemetry flusher
calls :meth:`DriftMonitor.evaluate` on every flush, breached alerts land
in the NDJSON stream as ``{"record": "alert", ...}`` lines (and in
``--status`` output), and — when the obs runtime is enabled — each
evaluation also publishes ``slo.observed`` / ``slo.predicted`` /
``slo.ratio`` gauges so scrapers see the drift without parsing alerts.

The closed forms live in ``repro.analysis`` (NumPy-backed); they are
imported lazily so ``repro.obs`` itself stays stdlib-only until an SLO
is actually evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.obs.metrics import MetricsSnapshot
from repro.records import JsonRecord

__all__ = [
    "DriftAlert",
    "EmDriftSLO",
    "GoodputDriftSLO",
    "DriftMonitor",
    "read_alerts",
]


@dataclass(frozen=True)
class DriftAlert(JsonRecord):
    """One SLO evaluation: observed vs predicted, and whether it breached."""

    slo: str
    observed: float
    predicted: float
    ratio: float
    tolerance: float
    breached: bool
    context: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"record": "alert", **super().to_json()}

    def describe(self) -> str:
        """One status line: ``em[np]: observed 1.23 vs predicted 1.19 ...``."""
        state = "BREACH" if self.breached else "ok"
        return (
            f"{self.slo}: observed {self.observed:.4g} vs predicted "
            f"{self.predicted:.4g} (ratio {self.ratio:.3f}, "
            f"tolerance ±{self.tolerance:.0%}) [{state}]"
        )


def _alert(
    name: str,
    observed: float,
    predicted: float,
    tolerance: float,
    context: dict,
) -> DriftAlert:
    ratio = observed / predicted if predicted > 0 else math.inf
    breached = not math.isfinite(ratio) or abs(ratio - 1.0) > tolerance
    return DriftAlert(
        slo=name,
        observed=observed,
        predicted=predicted,
        ratio=ratio,
        tolerance=tolerance,
        breached=breached,
        context=context,
    )


def _counter_total(
    snapshot: MetricsSnapshot,
    name: str,
    _default: int | None = None,
    **fixed_labels: Any,
) -> int:
    """Sum a counter across label sets matching ``fixed_labels`` exactly
    on the given keys (other label keys are free).  An absent counter
    raises ``KeyError`` unless ``_default`` is given — repair-path
    counters (parity, retransmissions) legitimately never register on a
    loss-free run and count as 0."""
    wanted = {str(k): str(v) for k, v in fixed_labels.items()}
    total = 0
    found = False
    for (counter_name, _), entry in snapshot._entries.items():
        if counter_name != name or entry["type"] != "counter":
            continue
        labels = entry.get("labels", {})
        if all(str(labels.get(k)) == v for k, v in wanted.items()):
            total += int(entry["value"])
            found = True
    if not found:
        if _default is not None:
            return _default
        raise KeyError(f"no counter {name!r} matching {wanted} in snapshot")
    return total


class EmDriftSLO:
    """Observed transmissions-per-packet vs the Equation-6 lower bound.

    Two counter sources:

    * ``source="transfer"`` — the discrete-event simulator's merged
      ``transfer.*`` counters (labeled by protocol): observed ``E[M]`` is
      ``(data_sent + parity_sent + retransmissions_sent) / data_packets``.
    * ``source="net"`` — the live UDP transport: observed ``E[M]`` is
      payload frames actually sent (``net.frames_tx{kind=data|parity}``)
      over the loss-free baseline (``net.stream_data_tx``, the initial
      per-group data fanout).

    ``evaluate`` returns ``None`` while the counters are absent (nothing
    has run yet), so the monitor stays quiet during warm-up.
    """

    def __init__(
        self,
        k: int,
        p: float,
        n_receivers: int,
        protocol: str = "np",
        tolerance: float = 0.25,
        source: str = "transfer",
    ) -> None:
        if source not in ("transfer", "net"):
            raise ValueError(f"source must be 'transfer' or 'net', got {source!r}")
        if not 0.0 <= p < 1.0:
            raise ValueError(f"loss probability must be in [0, 1), got {p}")
        self.k = int(k)
        self.p = float(p)
        self.n_receivers = int(n_receivers)
        self.protocol = protocol
        self.tolerance = float(tolerance)
        self.source = source
        self.name = f"em[{source}:{protocol}]" if source == "transfer" else "em[net]"
        self._predicted: float | None = None

    def predicted(self) -> float:
        if self._predicted is None:
            from repro.analysis.integrated import (
                expected_transmissions_lower_bound,
            )

            self._predicted = expected_transmissions_lower_bound(
                self.k, self.p, self.n_receivers
            )
        return self._predicted

    def observed(self, snapshot: MetricsSnapshot) -> float | None:
        try:
            if self.source == "transfer":
                sent = _counter_total(
                    snapshot, "transfer.data_sent", protocol=self.protocol
                ) + sum(
                    _counter_total(snapshot, name, 0, protocol=self.protocol)
                    for name in (
                        "transfer.parity_sent",
                        "transfer.retransmissions_sent",
                    )
                )
                baseline = _counter_total(
                    snapshot, "transfer.data_packets", protocol=self.protocol
                )
            else:
                sent = _counter_total(
                    snapshot, "net.frames_tx", kind="data"
                ) + _counter_total(snapshot, "net.frames_tx", 0, kind="parity")
                baseline = _counter_total(snapshot, "net.stream_data_tx")
        except KeyError:
            return None
        if baseline <= 0:
            return None
        return sent / baseline

    def evaluate(self, snapshot: MetricsSnapshot) -> DriftAlert | None:
        observed = self.observed(snapshot)
        if observed is None:
            return None
        return _alert(
            self.name,
            observed,
            self.predicted(),
            self.tolerance,
            {
                "k": self.k,
                "p": self.p,
                "n_receivers": self.n_receivers,
                "protocol": self.protocol,
                "source": self.source,
            },
        )


class GoodputDriftSLO:
    """Observed receive goodput vs the Section-5 NP throughput model.

    Observed: the ``net.goodput_bytes_per_s`` gauge (peak payload
    bytes/s over a completed fetch).  Predicted:
    ``np_rates(p, k, R, costs).throughput * packet_size`` — the Figure
    17/18 model evaluated with the appendix's 1997 DECstation constants,
    so the default tolerance is deliberately wide; the SLO catches
    order-of-magnitude drift (a stalled pacer, a NAK storm), not
    hardware-era differences.
    """

    def __init__(
        self,
        k: int,
        p: float,
        n_receivers: int,
        packet_size: int,
        tolerance: float = 10.0,
        costs: Any | None = None,
    ) -> None:
        if not 0.0 <= p < 1.0:
            raise ValueError(f"loss probability must be in [0, 1), got {p}")
        self.k = int(k)
        self.p = float(p)
        self.n_receivers = int(n_receivers)
        self.packet_size = int(packet_size)
        self.tolerance = float(tolerance)
        self.costs = costs
        self.name = "goodput[net]"
        self._predicted: float | None = None

    def predicted(self) -> float:
        if self._predicted is None:
            from repro.analysis.throughput import PAPER_COSTS, np_rates

            report = np_rates(
                self.p,
                self.k,
                # the model is undefined at R < 1; a single receiver is
                # the degenerate-but-valid floor for a loopback fetch
                max(self.n_receivers, 1),
                self.costs if self.costs is not None else PAPER_COSTS,
            )
            self._predicted = report.throughput * self.packet_size
        return self._predicted

    def observed(self, snapshot: MetricsSnapshot) -> float | None:
        try:
            value = snapshot.value("net.goodput_bytes_per_s")
        except KeyError:
            return None
        return None if value is None else float(value)

    def evaluate(self, snapshot: MetricsSnapshot) -> DriftAlert | None:
        observed = self.observed(snapshot)
        if observed is None:
            return None
        return _alert(
            self.name,
            observed,
            self.predicted(),
            self.tolerance,
            {
                "k": self.k,
                "p": self.p,
                "n_receivers": self.n_receivers,
                "packet_size": self.packet_size,
            },
        )


class DriftMonitor:
    """A bundle of SLOs evaluated together against one snapshot.

    Each evaluation publishes ``slo.observed/predicted/ratio{slo=name}``
    gauges into the obs runtime (when enabled) so the drift is visible to
    scrapers, and returns every alert — the caller decides whether only
    breaches are persisted (the flusher does exactly that).
    """

    def __init__(self, slos: Sequence[Any]) -> None:
        self.slos = list(slos)
        self.last_alerts: list[DriftAlert] = []

    def evaluate(self, snapshot: MetricsSnapshot) -> list[DriftAlert]:
        from repro.obs import runtime

        alerts: list[DriftAlert] = []
        for slo in self.slos:
            alert = slo.evaluate(snapshot)
            if alert is None:
                continue
            alerts.append(alert)
            if runtime.is_enabled():
                # max-mode gauges: monotone, hence exactly mergeable; the
                # latest evaluation of a converging run dominates anyway
                runtime.gauge("slo.observed", slo=alert.slo).observe(
                    alert.observed
                )
                runtime.gauge("slo.predicted", slo=alert.slo).observe(
                    alert.predicted
                )
                if math.isfinite(alert.ratio):
                    runtime.gauge("slo.ratio", slo=alert.slo).observe(
                        alert.ratio
                    )
        self.last_alerts = alerts
        return alerts


def read_alerts(path: Any) -> list[DriftAlert]:
    """Every ``{"record": "alert", ...}`` row of an NDJSON telemetry
    stream, parsed; tolerates a torn tail from a live writer."""
    from repro.obs.export import _iter_ndjson

    alerts = []
    for row in _iter_ndjson(path):
        if row.get("record") == "alert":
            try:
                alerts.append(DriftAlert.from_json(row))
            except (KeyError, TypeError, ValueError):
                continue
    return alerts
