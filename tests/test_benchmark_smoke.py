"""End to end through the benchmark: a short bulk run must verify every byte.

``perfbench/run.py`` starts real daemons and streams a seeded payload
through a modem's loopback call beside a paced terminal, checking every
reply.  One second of it catches a data-path change that corrupts or
drops bytes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_second_of_bulk_verifies_every_byte():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, run.stdout[-2000:]
    assert result["failed"] == 0
    assert run.returncode == 0
