"""Regenerate ``reference.json``: the pinned op outcomes of the reference seed.

Run from the root of the repository, only when a change to the program is
meant to change these outcomes::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.workloads import REFERENCE_PATH, REFERENCE_SEED, MCEm, SimNP  # noqa: E402

#: ops pinned per workload: the warm-up ops of every run plus the first
#: timed ops of a run with the reference seed
PINNED_OPS = 8


def main() -> None:
    reference = {}
    for cls in (SimNP, MCEm):
        with cls() as workload:
            outcomes = {}
            for index in range(PINNED_OPS):
                result = workload.run_op(workload.make_input(REFERENCE_SEED, index))
                if result.failures:
                    raise SystemExit(f"{cls.name} op {index}: {result.failures}")
                outcomes[str(index)] = result.outcome
            reference[cls.name] = outcomes
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
