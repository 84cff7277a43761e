"""Report how often the platform wakes a deployment that has nothing to move.

Each scene is served in-process, as the daemon serves it, through
``Platform.serve()``, and the passes the deployment gets (or, once it
has stopped, the looks at its client) are counted for a while and
printed per second:

- ``unattached``: a deployment whose client has closed the node, so
  attachment is sampled (``ATTACH_SAMPLE``, about 20 a second);
- ``lingering``: a stopped deployment whose client is attached and does
  not read its tail, within ``DRAIN_WAIT``;
- ``escape-withheld``: a TCP call whose withheld ``+++`` reaches its
  guard time while the client does not read and the output is full;
- ``peer-drained``: a TCP call whose carrier holds a backlog, whose
  client does not read, and whose peer has read what reached it.

The scenes are those of ``tests/test_pass.py``.  Run it from anywhere,
with no arguments, in a few seconds:

    python tests/wakeups.py

pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_pass import Served, escape_withheld, lingering, peer_drained  # noqa: E402


def unattached(root: Path) -> tuple:
    served = Served(root, "shouter")
    os.close(served.fd)
    served.fd = os.open(os.devnull, os.O_RDONLY)  # for close()
    endpoint = served.deployment.endpoint
    served.serve_until(lambda: not endpoint._attached, "see the client go")
    return (served,)


def attached_and_lingering(root: Path) -> tuple:
    served = Served(root, "shouter")
    lingering(served)
    return (served,)


# name -> (set-up, which returns the scene and its TCP peer, if any, and
# the seconds counted)
SCENES = {
    "unattached": (unattached, 1.0),
    "lingering": (attached_and_lingering, 0.2),  # within DRAIN_WAIT
    "escape-withheld": (lambda root: escape_withheld(root)[:2], 0.5),
    "peer-drained": (lambda root: peer_drained(root)[:2], 0.5),
}


def main() -> int:
    print(f"{'passes/s':>9}  scene")
    for name, (set_up, seconds) in SCENES.items():
        root = Path(tempfile.mkdtemp(prefix="proteus-wakeups-"))
        try:
            served, *opened = set_up(root)
            try:
                started = time.monotonic()
                count = served.passes(seconds)
                print(f"{count / (time.monotonic() - started):9.1f}  {name}")
            finally:
                for each in (*opened, served):
                    each.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
