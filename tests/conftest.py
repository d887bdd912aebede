"""Shared fixtures for the test suite, and ``@pytest.mark.timeout``.

The timeout marks bound the loopback and churn suites so a wedged socket
test fails instead of hanging the run.  When the ``pytest-timeout`` plugin
is installed it enforces them; otherwise the hook below does, in-process:
a ``SIGALRM`` fails the test with its traceback, and a
``faulthandler.dump_traceback_later`` backstop dumps every thread and
exits if the alarm cannot break the test out (e.g. a hang in C code).
"""

from __future__ import annotations

import faulthandler
import os
import signal

import numpy as np
import pytest

from repro.fec.rse import RSECodec
from repro.galois.field import GF16, GF256, GF65536


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator; reseed per test for reproducibility."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(params=[GF16, GF256, GF65536], ids=["GF16", "GF256", "GF65536"])
def field(request):
    """The three standard fields, parametrised."""
    return request.param


@pytest.fixture
def small_codec() -> RSECodec:
    """The paper's favourite configuration: k = 7 with 3 parities."""
    return RSECodec(k=7, h=3)


def random_packets(rng: np.random.Generator, count: int, size: int = 64) -> list[bytes]:
    """Helper used across FEC tests: ``count`` random packets of ``size``."""
    return [rng.bytes(size) for _ in range(count)]


#: how long after a timeout the backstop waits for the failed test to
#: unwind (teardown included) before it dumps tracebacks and exits
BACKSTOP_SLACK_S = 30.0

#: a duplicate of the terminal's stderr, taken while pytest is not
#: capturing, so the backstop's dump is seen rather than captured
_terminal_stderr: int | None = None


def pytest_configure(config):
    global _terminal_stderr
    _terminal_stderr = os.dup(2)


def pytest_unconfigure(config):
    if _terminal_stderr is not None:
        os.close(_terminal_stderr)


def _timeout_of(item) -> float | None:
    """Seconds from ``@pytest.mark.timeout``, unless pytest-timeout has it."""
    marker = item.get_closest_marker("timeout")
    if marker is None or item.config.pluginmanager.hasplugin("timeout"):
        return None
    seconds = marker.args[0] if marker.args else marker.kwargs.get("timeout")
    return float(seconds or 0) or None


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    seconds = _timeout_of(item)
    if seconds is None:
        yield
        return

    def on_alarm(signum, frame):
        pytest.fail(f"Timeout: test exceeded {seconds:g}s", pytrace=True)

    alarm = hasattr(signal, "SIGALRM")
    if alarm:
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, seconds)
    faulthandler.dump_traceback_later(
        seconds + BACKSTOP_SLACK_S, exit=True, file=_terminal_stderr
    )
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
        if alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
