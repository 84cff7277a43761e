"""One daemon start of a workload, driven by this process alone.

    python perfbench/segment.py WORKLOAD SEED INDEX SECONDS ROOT WORKDIR TRACED OUT

``perfbench/workloads.py`` starts one of these per segment of a run and
pools what each writes to OUT, so no generator process measures more
than one segment.  Needs ROOT/src on PYTHONPATH.
"""

from __future__ import annotations

import sys
from pathlib import Path

from workloads import segment


def main(argv: list[str]) -> int:
    workload, seed, index, seconds, root, workdir, traced, out = argv
    data = segment(workload, int(seed), int(index), float(seconds), Path(root),
                   Path(workdir), traced == "1")
    Path(out).write_text(data.to_json())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
