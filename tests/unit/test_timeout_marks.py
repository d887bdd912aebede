"""``@pytest.mark.timeout`` is enforced even without pytest-timeout.

The loopback and churn suites rely on their timeout marks to turn a
wedged socket test into a failure.  This runs a child pytest that loads
the suite's ``conftest`` hook (with the plugin blocked, so the hook is
what enforces the mark) on a ``timeout(1)`` test that sleeps for a minute.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]

SLEEPER = '''
import time

import pytest


@pytest.mark.timeout(1)
def test_sleeps_past_its_bound():
    time.sleep(60)
'''


def test_timeout_mark_fails_a_hung_test_with_its_traceback(tmp_path):
    (tmp_path / "pytest.ini").write_text(
        "[pytest]\nmarkers =\n    timeout: per-test wall-clock bound\n"
    )
    (tmp_path / "test_sleeper.py").write_text(SLEEPER)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    start = time.monotonic()
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-p", "tests.conftest",
            "-p", "no:timeout", "-p", "no:cacheprovider", "-q",
            str(tmp_path / "test_sleeper.py"),
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=90,
    )
    elapsed = time.monotonic() - start
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert elapsed < 20, f"took {elapsed:.1f}s:\n{output}"
    assert "Timeout: test exceeded 1s" in output
    assert "test_sleeps_past_its_bound" in output
    assert "time.sleep(60)" in output
    assert "1 failed" in output
