"""Report what ``import proteus.cli`` costs, per module and in total.

Each run imports ``proteus.cli`` under ``python -X importtime`` in a
fresh interpreter, with ``PYTHONDONTWRITEBYTECODE=1`` and an empty
``-X pycache_prefix``, so every module is compiled from source on every
run and no ``.pyc`` left by an earlier run or another version of the
code can skew it.  What the interpreter imports for itself before the
command runs, up to and including ``site``, is left out.  It makes
``RUNS`` runs and prints the median of each figure: the self and
cumulative microseconds of each ``proteus`` module, the ``TOP``
costliest other modules by self time, and the total.  Run it from
anywhere, with no arguments:

    python tests/import_cost.py

pytest does not collect this file.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src"
RUNS = 5
TOP = 10


def import_times() -> dict[str, tuple[int, int]]:
    """One fresh import: module name -> (self us, cumulative us)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SOURCE),
                                                        os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as prefix:
        run = subprocess.run(
            [sys.executable, "-X", "importtime", "-X", f"pycache_prefix={prefix}",
             "-c", "import proteus.cli"],
            env=env, capture_output=True, text=True, check=True)
    times: dict[str, tuple[int, int]] | None = None
    for line in run.stderr.splitlines():
        # "import time:      self [us] |  cumulative | imported package"
        if not line.startswith("import time:") or "[us]" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        if times is not None:
            times[name.strip()] = (int(own), int(cumulative))
        elif name.strip() == "site":  # the interpreter's own start-up ends here
            times = {}
    return times


def main() -> int:
    runs = [import_times() for _ in range(RUNS)]
    names = set().union(*runs)
    median = {name: tuple(statistics.median(run.get(name, (0, 0))[i] for run in runs)
                          for i in (0, 1))
              for name in names}
    ours = sorted(name for name in names if name.split(".")[0] == "proteus")
    others = sorted(names.difference(ours), key=lambda name: -median[name][0])[:TOP]
    print(f"median of {RUNS} fresh imports of proteus.cli, in us")
    print(f"{'self':>8} {'cumulative':>11}  module")
    for name in ours:
        print(f"{median[name][0]:8.0f} {median[name][1]:11.0f}  {name}")
    print(f"the {TOP} costliest other modules, by self time:")
    for name in others:
        print(f"{median[name][0]:8.0f} {median[name][1]:11.0f}  {name}")
    total = statistics.median(sum(own for own, _ in run.values()) for run in runs)
    print(f"{total:8.0f} {'':>11}  total of {len(names)} modules")
    return 0


if __name__ == "__main__":
    sys.exit(main())
