"""One serial ``wittid verify-basis`` run, timed and measured.

Usage, from anywhere::

    python3 tools/frontier.py --model u1 --nmax 8 --dmax 1 [--field gf3]
        [--range tight] [--out report.json]

Every argument is passed on to ``wittid verify-basis``, which runs in a
child process on the ``src`` tree of the checkout this script sits in,
with ``PYTHONDONTWRITEBYTECODE=1``. The child's own output goes to
stderr. The last stdout line is one JSON object: the child's argv, its
exit code, its wall seconds, and its peak resident set size in MiB, read
from ``getrusage(RUSAGE_CHILDREN)`` once it has exited. A sweep is serial
by default; ``--workers`` is refused (exit 2), since a parallel sweep
starts child processes of its own, whose peaks are not the peak of one
process. Otherwise the script exits 0 once the record is printed,
whatever the child's exit code.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if any(a == "--workers" or a.startswith("--workers=") for a in args):
        print("frontier.py: runs are serial; --workers is not accepted", file=sys.stderr)
        return 2
    child = [sys.executable, "-m", "wittid.cli", "verify-basis", *args]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    code = subprocess.run(child, env=env, stdout=sys.stderr).returncode
    wall = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
    record = {
        "argv": ["wittid", "verify-basis", *args],
        "exit_code": code,
        "wall_s": round(wall, 3),
        "peak_rss_mib": round(peak_kib / 1024, 1),
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
