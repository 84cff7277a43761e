"""Report what one ``status`` costs the loop as the daemon's history grows.

In-process, a platform with two simulated hams serves a modem
deployment on each, with real PTYs and no client.  Stopped deployments
are added by undeploying the one on ``sim0`` and deploying it again, so
each ham keeps a live deployment throughout.  At 0, 50 and
``MAX_TOMBSTONES`` stopped deployments it prints the median time of
``Platform.status()`` plus ``encode_status_response``, what the daemon
does on its loop for a ``status`` request, and the size of the reply.
Run it from anywhere, with no arguments, in a few seconds:

    python tests/status_cost.py

pytest does not collect this file.
"""

from __future__ import annotations

import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from proteus import core  # noqa: E402
from proteus.control import encode_status_response  # noqa: E402
from proteus.core import Platform  # noqa: E402
from proteus.ham import SimulatedFpga  # noqa: E402
from proteus.manifest import Implementation, ModuleManifest  # noqa: E402

CALLS = 300  # timed status calls per point


def cost(platform: Platform) -> tuple[float, int]:
    """Median microseconds of one status build and encode, and reply bytes."""
    times = []
    for _ in range(CALLS):
        started = time.perf_counter_ns()
        reply = encode_status_response(platform.status())
        times.append(time.perf_counter_ns() - started)
    return statistics.median(times) / 1000, len(reply)


def main() -> int:
    root = Path(tempfile.mkdtemp(prefix="proteus-status-cost-"))
    platform = Platform(runtime_dir=root)
    try:
        for ham_id in ("sim0", "sim1"):
            platform.register_ham(SimulatedFpga(ham_id, "sim-fpga-v1"))
        platform.load_module(ModuleManifest(
            "modem", "Modem", (Implementation("sim-fpga-v1", "modem", "modem-stub"),)))
        live = platform.deploy("modem", "sim0")
        platform.deploy("modem", "sim1")
        print(f"{'stopped':>7}  {'us':>7}  {'bytes':>7}")
        stopped = 0
        for point in (0, 50, core.MAX_TOMBSTONES):
            while stopped < point:
                platform.undeploy(live)
                live = platform.deploy("modem", "sim0")
                stopped += 1
            micros, size = cost(platform)
            print(f"{point:7d}  {micros:7.1f}  {size:7d}")
    finally:
        platform.shutdown()
        shutil.rmtree(root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
