"""Tests of the benchmark itself: its accounting, its checks and its exits.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from repro.mc import nofec as mc_nofec  # noqa: E402
from repro.mc._common import MCResult  # noqa: E402
from repro.net import endpoints, wire  # noqa: E402

from perfbench import layers, run  # noqa: E402
from perfbench.tracer import CoverageError, Tracer  # noqa: E402
from perfbench.workloads import check_deliveries  # noqa: E402


def bench(capsys, monkeypatch, tmp_path, *args: str) -> tuple[int, dict, dict]:
    """Run the benchmark in-process: (exit code, result line, detail line)."""
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    code = run.main(["--seconds", "1", *args])
    lines = capsys.readouterr().out.strip().splitlines()
    detail = json.loads(next(l for l in lines if l.startswith("detail "))[7:])
    return code, json.loads(lines[-1]), detail


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class TestTracer:
    def test_self_times_and_remainder_add_up_to_wall(self):
        tracer = Tracer()
        inner = tracer.wrap("galois.matmul", lambda: busy(0.01))

        def outer_fn():
            busy(0.01)
            inner()
            inner()

        outer = tracer.wrap("fec.decode", outer_fn)
        start = time.perf_counter()
        outer()
        busy(0.005)
        wall = time.perf_counter() - start
        leaves = tracer.leaves
        assert leaves["fec.decode"].calls == 1
        assert leaves["galois.matmul"].calls == 2
        assert leaves["fec.decode"].self_s == pytest.approx(0.01, abs=0.004)
        assert leaves["galois.matmul"].self_s == pytest.approx(0.02, abs=0.004)
        remainder = wall - sum(tracer.layer_self_s().values())
        assert remainder == pytest.approx(0.005, abs=0.004)

    def test_reentrant_call_into_a_leaf_counts_once(self):
        tracer = Tracer()
        inner = tracer.wrap("fec.encode", lambda: None)
        outer = tracer.wrap("fec.encode", lambda: inner())
        outer()
        assert tracer.leaves["fec.encode"].calls == 1

    def test_errors_are_counted_and_reraised(self):
        tracer = Tracer()
        decode = tracer.wrap("wire.decode", wire.decode_frame)
        with pytest.raises(wire.FrameError):
            decode(b"garbage")
        assert tracer.leaves["wire.decode"].errors == 1

    def test_every_from_import_binding_is_patched_and_restored(self):
        original = wire.encode_frame
        tracer = Tracer()
        try:
            bound = tracer.patch_function(wire, "encode_frame", "wire.encode")
            assert bound >= 3  # repro.net.wire, repro.net, repro.net.endpoints
            assert endpoints.encode_frame is not original
            assert endpoints.encode_frame is wire.encode_frame
        finally:
            tracer.restore()
        assert endpoints.encode_frame is original and wire.encode_frame is original

    def test_missing_entry_point_is_an_error(self):
        tracer = Tracer()
        with pytest.raises(CoverageError):
            tracer.patch_function(wire, "no_such_function", "wire.encode")
        with pytest.raises(CoverageError):
            tracer.patch_method(wire.FrameError, "no_such_method", "wire.decode")

    def test_coverage_check_names_a_silent_layer(self):
        tracer = Tracer()
        tracer.wrap("loss", lambda: None)()
        assert layers.check_coverage(tracer, ("loss",)) == []
        assert layers.check_coverage(tracer, ("loss", "mc")) == [
            "layer 'mc' recorded no calls; its entry points moved"
        ]


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(v) for v in range(40)]) == (29.0, 75.0, 10)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0, 0)


def test_check_deliveries_catches_a_tampered_copy():
    payload = b"abc" * 100
    tampered = b"abd" + payload[3:]
    assert check_deliveries(payload, [payload, payload], 2) == []
    assert check_deliveries(payload, [payload, tampered], 2) == [
        "1 receivers delivered wrong bytes"
    ]
    assert check_deliveries(payload, [payload], 2) == ["1 of 2 receivers delivered"]


class TestRuns:
    def test_non_default_seed_passes(self, capsys, monkeypatch, tmp_path):
        code, result, detail = bench(
            capsys, monkeypatch, tmp_path, "--workload", "mc_em", "--seed", "7"
        )
        assert code == 0
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {
            "setup_s", "wall_s", "op_ms.p50", "op_ms.tail",
            "cpu_us_per_pkt", "tx_per_pkt", "peak_rss_mb",
        }
        assert detail["fail_ratio"] == 0.0
        assert detail["provenance"]["gf_backend"] == "numpy"
        assert detail["provenance"]["obs_enabled"] is False

    def test_shifted_mean_fails_the_run(self, capsys, monkeypatch, tmp_path):
        simulate = mc_nofec.simulate_nofec

        def shifted(*args, **kwargs):
            result = simulate(*args, **kwargs)
            return MCResult(result.mean + 1e-9, result.stderr, result.replications)

        monkeypatch.setattr(mc_nofec, "simulate_nofec", shifted)
        code, result, detail = bench(capsys, monkeypatch, tmp_path, "--workload", "mc_em")
        assert code == 1
        assert not result["correct"]
        # the warm-up ops run the reference seed, whose means are pinned
        assert result["failed"] >= run.SETUP_REPEATS
        assert detail["fail_ratio"] > 0

    def test_mean_off_the_closed_form_fails_at_any_seed(self, capsys, monkeypatch, tmp_path):
        simulate = mc_nofec.simulate_nofec

        def biased(*args, **kwargs):
            result = simulate(*args, **kwargs)
            return MCResult(result.mean * 1.2, result.stderr, result.replications)

        monkeypatch.setattr(mc_nofec, "simulate_nofec", biased)
        code, result, _ = bench(
            capsys, monkeypatch, tmp_path, "--workload", "mc_em", "--seed", "5"
        )
        assert code == 1
        # every FBT cell of the timed pass misses the closed form
        assert result["failed"] >= run.MIN_OPS // 2

    def test_tampered_payload_fails_the_run(self, capsys, monkeypatch, tmp_path):
        assemble = endpoints._ReceiverProtocol.assemble

        def tampered(protocol):
            data = bytearray(assemble(protocol))
            data[len(data) // 2] ^= 0x01
            return bytes(data)

        monkeypatch.setattr(endpoints._ReceiverProtocol, "assemble", tampered)
        code, result, detail = bench(
            capsys, monkeypatch, tmp_path, "--workload", "net_clean", "--seed", "3"
        )
        assert code == 1
        assert result["failed"] == result["attempted"]
        assert detail["fail_ratio"] == 1.0

    def test_traced_run_reports_every_layer_and_adds_up(self, capsys, monkeypatch, tmp_path):
        code, result, detail = bench(
            capsys, monkeypatch, tmp_path, "--workload", "mc_em", "--trace", "1"
        )
        assert code == 0
        metrics = result["metrics"]
        assert list(metrics) == [name for name, _ in layers.PER_LAYER]
        assert metrics["mc.replications"]["value"] > 0
        assert metrics["loss.sample_calls"]["value"] > 0
        assert metrics["engine.events"]["value"] == 0
        wall = metrics["trace.wall_s"]["value"]
        attributed = sum(detail["layer_self_s"].values())
        assert attributed + metrics["unattributed_s"]["value"] == pytest.approx(wall)
        assert (tmp_path / "mc_em-seed0.trace.json").is_file()

    def test_refuses_a_non_default_gf_backend(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_GF_BACKEND", "numpy")
        assert run.main(["--workload", "mc_em"]) == 2
        assert capsys.readouterr().out == ""


def test_fails_without_printing_where_the_source_is_missing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_np", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
