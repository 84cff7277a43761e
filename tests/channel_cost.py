"""Report what one ``write`` plus ``read`` costs on a duplex channel.

In-process, through the two handles of ``create_duplex()``, it prints
the median time of the application handle writing a payload and the
platform handle reading it back, at 1 byte and at 4 KiB (the default
capacity, so the write fills the channel and the read empties it).
Run it from anywhere, with no arguments, in a second or two:

    python tests/channel_cost.py

pytest does not collect this file.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from proteus.channel import DEFAULT_CAPACITY, create_duplex  # noqa: E402

CALLS = 20000  # timed write-read pairs per size


def cost(size: int) -> float:
    """Median nanoseconds of one write and the read that empties it."""
    app, platform = create_duplex()
    payload = b"x" * size
    clock = time.perf_counter_ns
    times = []
    for _ in range(CALLS):
        started = clock()
        app.write(payload)
        platform.read(size)
        times.append(clock() - started)
    assert platform.readable == 0
    return statistics.median(times)


def main() -> int:
    print(f"{'bytes':>5}  {'ns':>7}")
    for size in (1, DEFAULT_CAPACITY):
        print(f"{size:5d}  {cost(size):7.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
