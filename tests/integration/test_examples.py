"""Integration: every bundled example runs to completion.

Executed as subprocesses with scaled-down arguments, exactly as a user
would run them — guarding the examples against API drift.
"""

import pathlib
import re
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, *args: str, timeout: float = 300.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, (
        f"{name} failed:\nstdout:\n{result.stdout}\nstderr:\n{result.stderr}"
    )
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "decoded all 7 packets correctly" in out
        assert "payload verified   : True" in out

    def test_file_transfer(self):
        out = run_example(
            "file_transfer.py", "--receivers", "10", "--size", "30000",
            "--loss", "0.05",
        )
        assert "np" in out and "n2" in out
        assert "E[M]" in out

    def test_loss_study(self):
        out = run_example(
            "loss_study.py", "--receivers", "64", "--reps", "25",
        )
        assert "independent" in out
        assert "bursty" in out

    def test_burst_resilience(self):
        out = run_example(
            "burst_resilience.py", "--receivers", "50", "--reps", "30",
        )
        assert "FEC2" in out

    def test_latency_study(self):
        out = run_example(
            "latency_study.py", "--receivers", "20", "--reps", "5",
        )
        assert "fec1" in out
        assert "model" in out

    def test_chaos_study(self):
        out = run_example("chaos_study.py", "--plans", "4")
        rows = re.findall(
            r"^\s*(\d+)\s+(np|layered|n2)\s+(ok|degraded|stalled|timeout)\s",
            out,
            re.MULTILINE,
        )
        assert sorted((int(plan), protocol) for plan, protocol, _ in rows) == [
            (plan, protocol)
            for plan in range(4)
            for protocol in sorted(("np", "layered", "n2"))
        ]
        assert out.count("faults: FaultPlan(") == 4

    def test_planning_tool(self):
        out = run_example(
            "planning_tool.py", "--k", "7", "--receivers", "1000",
        )
        assert "reactive parity budget" in out
        assert "expected bandwidth overhead" in out

    def test_figure_gallery_single_figure(self):
        out = run_example("figure_gallery.py", "fig05")
        assert "integrated" in out
        assert "expected shape" in out
