"""Kill what a dead benchmark left behind.

``run.py`` starts this process first, in a session of its own, and keeps
its standard input open.  It writes ``+PGID`` when it launches a ``serve``
process group and ``-PGID`` once it has stopped that group itself.  When
standard input reaches EOF — ``run.py`` exited, or was killed outright —
the watchdog SIGKILLs every group still registered, waits for them to
empty, and unlinks the ``/dev/shm/psm_*`` segments that appeared since it
started.  It is needed because engine workers and the multiprocessing
resource tracker outlive a coordinator that was killed with SIGKILL.
"""

from __future__ import annotations

import os
import signal
import sys
import time

from serveproc import SHM_DIR, group_pids, shm_segments


def main() -> int:
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # outlive a Ctrl-C to the benchmark
    before = shm_segments()
    groups: set[int] = set()
    for line in sys.stdin:
        sign, pgid = line[:1], int(line[1:])
        if sign == "+":
            groups.add(pgid)
        else:
            groups.discard(pgid)
    if not groups:
        return 0
    for pgid in groups:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10
    while any(group_pids(g) for g in groups) and time.monotonic() < deadline:
        time.sleep(0.02)
    for name in shm_segments() - before:
        try:
            (SHM_DIR / name).unlink()
        except FileNotFoundError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
