"""Stop-race sweep: does every daemon stop on SIGTERM?

    python tests/stop_stress.py N

Starts N ``proteusctl daemon`` processes, two at a time.  Each answers
one control request on a connection that is then closed, and gets
SIGTERM after a pause drawn from 0-200 us, the way the benchmark stops
its daemons.  A signal that lands between Python's last look for one
and ``epoll_wait`` is only seen at the loop's next wake-up, which an
idle daemon never has unless the signal itself wakes it.  Exits 1 if
any daemon is still serving 3 s after its SIGTERM, or stops unclean.
Not a pytest module: run it by hand or from CI.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
sys.path.insert(0, SRC)

from proteus.control import ControlClient  # noqa: E402

STOP_LIMIT = 3.0  # seconds a daemon may take to stop after SIGTERM
WORKERS = 2


def stop_once(run_dir: str, pause: float) -> str:
    """Start, poke and stop one daemon: "stopped", "serving" or "unclean"."""
    sock = os.path.join(run_dir, "ctl.sock")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "proteus.cli", "daemon", "--socket", sock,
         "--runtime-dir", run_dir],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env)
    try:
        if "daemon ready" not in proc.stdout.readline():
            return "unclean"
        with ControlClient(sock) as client:
            client.request("status")
        time.sleep(pause)  # and the timer slack, some 50 us more
        proc.send_signal(signal.SIGTERM)
        try:
            return "stopped" if proc.wait(STOP_LIMIT) == 0 else "unclean"
        except subprocess.TimeoutExpired:
            return "serving"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def main(argv: list[str]) -> int:
    runs = int(argv[1]) if len(argv) > 1 else 300
    rng = random.Random(1)
    pauses = [rng.uniform(0, 200e-6) for _ in range(runs)]
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(WORKERS) as pool:
        dirs = [os.path.join(tmp, str(i)) for i in range(runs)]
        for run_dir in dirs:
            os.mkdir(run_dir)
        outcomes = list(pool.map(stop_once, dirs, pauses))
    counts = {kind: outcomes.count(kind) for kind in ("stopped", "serving", "unclean")}
    print(f"{runs} daemons: {counts['stopped']} stopped, {counts['serving']} still "
          f"serving {STOP_LIMIT:g} s after SIGTERM, {counts['unclean']} unclean")
    return 0 if counts["stopped"] == runs else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
