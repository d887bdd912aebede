"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload sim_np --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced pass and writes its spans under
``perfbench/out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 0 only when every correctness check passed.  See
``perfbench/README.md`` for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

#: set-ups per run; ``setup_s`` is the import time plus their median
SETUP_REPEATS = 3
#: fewest ops in a pass: the tail percentile needs ten samples beyond it
MIN_OPS = 12
#: a traced run measures this share of the op count twice, untraced and
#: traced, so it lasts about as long as an untraced run
TRACE_SHARE = 3
#: stop starting ops after this long, so a run always ends within 180 s
RUN_BUDGET_S = 150.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sim_np", "mc_em", "net_clean", "net_lossy"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile, samples beyond)``."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


class Runner:
    """Attempts ops, checks them, and keeps the tally."""

    def __init__(self, workload, reference: dict, reference_seed: int, deadline: float):
        self.workload = workload
        self.reference = reference
        self.reference_seed = reference_seed
        self.deadline = deadline
        #: (label, failures) of every op attempted; failures are the op
        #: result's own list, so run-level checks can still add to it
        self.ops: list[tuple[str, list[str]]] = []
        #: failures of the run as a whole (coverage, time budget)
        self.run_failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for _, failures in self.ops if failures)

    def messages(self) -> list[str]:
        return self.run_failures + [
            f"{label}: {reason}" for label, failures in self.ops for reason in failures
        ]

    def attempt(self, seed: int, index: int, op_input):
        """One op: run it and check it; None if it raised."""
        label = f"{self.workload.name} seed={seed} op={index}"
        try:
            result = self.workload.run_op(op_input)
        except Exception as exc:  # an op that raises is a failed op
            self.ops.append((label, [f"raised {type(exc).__name__}: {exc}"]))
            return None
        pinned = self.reference.get(str(index))
        if seed == self.reference_seed and pinned is not None and result.outcome != pinned:
            result.failures.append(
                f"outcome {result.outcome!r} differs from the reference {pinned!r}"
            )
        self.ops.append((label, result.failures))
        return result

    def run_pass(self, seed: int, inputs: list, tracer=None, trace_id_of=None):
        """Every op in turn; returns (results that returned, wall s, cpu s).

        With a tracer, each op gets an op span, and the first op's calls
        are also recorded as spans.
        """
        results = []
        cpu, wall = time.process_time(), time.perf_counter()
        for index, op_input in enumerate(inputs):
            if time.perf_counter() > self.deadline:
                self.run_failures.append(f"time budget spent after {index} ops")
                break
            if tracer is not None:
                trace_id = trace_id_of(index)
                tracer.trace_id = trace_id if index == 0 else None
            start = time.perf_counter()
            result = self.attempt(seed, index, op_input)
            if tracer is not None:
                tracer.trace_id = None
                tracer.record_op(trace_id, start, time.perf_counter(), op=index)
            if result is not None:
                results.append(result)
        return results, time.perf_counter() - wall, time.process_time() - cpu


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if os.environ.get("REPRO_GF_BACKEND", "").strip():
        print("perfbench: REPRO_GF_BACKEND is set; the benchmark measures only "
              "the default GF backend", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)

    import_start = time.perf_counter()
    import numpy

    from repro import obs
    from repro.galois import backends
    from repro.obs.tracecontext import mint_trace_id

    from perfbench import layers
    from perfbench.tracer import CoverageError, Tracer
    from perfbench.workloads import REFERENCE_SEED, WORKLOADS, load_reference

    import_s = time.perf_counter() - import_start

    obs.disable()
    workload = WORKLOADS[args.workload]()
    n_ops = max(MIN_OPS, round(args.seconds / workload.nominal_op_s))
    runner = Runner(
        workload,
        load_reference().get(workload.name, {}),
        REFERENCE_SEED,
        started + RUN_BUDGET_S,
    )
    provenance = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "gf_backend": backends.active_backend().name,
        "obs_enabled": obs.is_enabled(),
        "network": "UDP over the 127.0.0.1 loopback interface"
        if workload.name.startswith("net_") else "none",
        "caches": "warm across ops, as inside one process",
    }
    metrics: dict[str, tuple[float, str]] = {}
    detail: dict = {"provenance": provenance}

    with workload:
        # set-up: input generation, resources and one warm-up op on the
        # reference seed's inputs, repeated; imports happen once
        setups = []
        for repeat in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs = [workload.make_input(args.seed, i) for i in range(n_ops)]
            runner.attempt(REFERENCE_SEED, repeat, workload.make_input(REFERENCE_SEED, repeat))
            setups.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setups)

        if not args.trace:
            results, wall, cpu = runner.run_pass(args.seed, inputs)
            workload.check_run(results)
            metrics, extra = end_to_end(results, setup_s, wall, cpu)
            detail.update(extra)
        else:
            traced = inputs[: max(MIN_OPS, n_ops // TRACE_SHARE)]
            untraced, untraced_wall, _ = runner.run_pass(args.seed, traced)
            workload.check_run(untraced)
            tracer = Tracer()
            try:
                layers.install(tracer, workload.selector)
                results, wall, _ = runner.run_pass(
                    args.seed, traced, tracer,
                    lambda index: mint_trace_id("perfbench", workload.name, args.seed, index),
                )
            except CoverageError as error:
                runner.run_failures.append(f"cannot trace: {error}")
                results, wall = [], untraced_wall
            finally:
                tracer.restore()
            workload.check_run(results)
            for result in results:
                for name, value in result.counts.items():
                    tracer.counts[name] += value
            runner.run_failures += layers.check_coverage(tracer, workload.required_layers)
            metrics = layers.layer_metrics(tracer, wall, untraced_wall)
            detail["section5"] = layers.section5(tracer, workload.k)
            detail["traced_ops"] = len(traced)
            detail["layer_self_s"] = tracer.layer_self_s()
            detail["spans"] = write_spans(tracer, workload.name, args.seed)

    messages = runner.messages()
    correct = not messages
    detail["fail_ratio"] = runner.failed / max(1, runner.attempted)
    for message in messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"fail_ratio = {detail['fail_ratio']!r} ratio "
          f"({runner.failed} failed / {runner.attempted} attempted)")
    print("detail " + json.dumps(detail, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def end_to_end(results: list, setup_s: float, wall: float, cpu: float):
    """The untraced metrics, plus the by-products printed beside them."""
    op_ms = [1e3 * r.wall_s for r in results] or [0.0]
    tail_ms, tail_pct, beyond = tail(op_ms)
    packets = sum(r.packets for r in results)
    data = sum(r.data_packets for r in results)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "op_ms.p50": (statistics.median(op_ms), "ms"),
        "op_ms.tail": (tail_ms, "ms"),
        "cpu_us_per_pkt": (1e6 * cpu / max(1, packets), "us"),
        "tx_per_pkt": (sum(r.transmissions for r in results) / max(1, data), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    goodputs = [r.goodput_bytes / r.transfer_s / 1e6 for r in results if r.goodput_bytes]
    extra = {
        "ops": len(results),
        "op_ms.tail_percentile": tail_pct,
        "op_ms.tail_beyond": beyond,
        "cpu_s": cpu,
        "cpu_us_per_rep": 1e6 * cpu / max(1, sum(r.replications for r in results)),
        "goodput_mb_s": statistics.median(goodputs) if goodputs else None,
    }
    return metrics, extra


def write_spans(tracer, workload: str, seed: int) -> dict:
    """Spans out through the repro.obs NDJSON and trace-event exporters."""
    from repro.obs.spans import SpanRecorder
    from repro.obs.tracecontext import export_trace

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans = tracer.spans()
    recorder = SpanRecorder(capacity=max(1, len(spans)))
    recorder.records.extend(spans)
    recorder.dropped = tracer.recorder.dropped
    ndjson = OUT_DIR / f"{workload}-seed{seed}.spans.ndjson"
    recorder.to_ndjson(ndjson)
    trace = OUT_DIR / f"{workload}-seed{seed}.trace.json"
    events = export_trace(trace, spans)
    return {
        "ndjson": os.path.relpath(ndjson, ROOT),
        "trace_events": os.path.relpath(trace, ROOT),
        "spans": len(spans),
        "events": events,
        "dropped": tracer.recorder.dropped,
    }


if __name__ == "__main__":
    sys.exit(main())
