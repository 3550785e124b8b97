"""A coordinator killed outright (SIGKILL: no ``close()``, no atexit)
must not leave worker processes or shared-memory ring segments behind."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

DEADLINE_S = 5.0

#: builds a 2-worker engine, reports its worker pids and ring names, then
#: kills itself before any cleanup can run
COORDINATOR = """
import json, os, signal, sys
from repro.engine import ShardedEngine
engine = ShardedEngine(2)
print(json.dumps({
    "pids": [proc.pid for proc in engine._procs.values()],
    "rings": [ring.name for pair in engine._rings.values() for ring in pair],
}), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _alive(pid: int) -> bool:
    """Running (a zombie counts as gone: nothing may reap an orphan)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _segment_exists(name: str) -> bool:
    return Path("/dev/shm", name.lstrip("/")).exists()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc")
def test_workers_and_rings_die_with_a_killed_coordinator():
    env = dict(os.environ, PYTHONPATH=SRC)
    coordinator = subprocess.Popen(
        [sys.executable, "-c", COORDINATOR],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
    )
    pids: list[int] = []
    rings: list[str] = []
    try:
        # One line only: surviving workers would hold the pipe open, so
        # reading to EOF could hang.
        report = json.loads(coordinator.stdout.readline())
        pids, rings = report["pids"], report["rings"]
        coordinator.wait(timeout=30)
        assert len(pids) == 2
        deadline = time.monotonic() + DEADLINE_S
        while time.monotonic() < deadline:
            if not any(map(_alive, pids)) and not any(map(_segment_exists, rings)):
                break
            time.sleep(0.05)
        assert [pid for pid in pids if _alive(pid)] == []
        assert [name for name in rings if _segment_exists(name)] == []
    finally:
        if coordinator.poll() is None:
            coordinator.kill()
            coordinator.wait()
        coordinator.stdout.close()
        for pid in pids:
            if _alive(pid):
                os.kill(pid, 9)
        for name in rings:
            if _segment_exists(name):
                Path("/dev/shm", name.lstrip("/")).unlink()
