"""The benchmark's own tests: teardown that cannot leak, and repeatable
simulated figures.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
Each test starts real ``serve`` processes, so the suite takes about a
minute.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402  (puts src/ on sys.path)
import serveproc  # noqa: E402
import streams  # noqa: E402
import workloads  # noqa: E402


def _serve_children(parent: int) -> list[int]:
    """Process groups of the ``serve`` processes ``parent`` started."""
    groups = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            status = (entry / "status").read_text()
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        ppid = int(next(l.split()[1] for l in status.splitlines() if l.startswith("PPid:")))
        if ppid == parent and b"serve" in cmdline:
            groups.append(os.getpgid(int(entry.name)))
    return groups


def _spinners() -> list[int]:
    """Pids of live idle spinners (``serveproc.IdleSpinners``)."""
    pids = []
    for entry in Path("/proc").iterdir():
        try:
            if entry.name.isdigit() and b"calibrate.py" in (entry / "cmdline").read_bytes():
                pids.append(int(entry.name))
        except OSError:
            continue
    return pids


def _wait_gone(groups: list[int], timeout_s: float = 15.0) -> list[int]:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        alive = [pid for g in groups for pid in serveproc.group_pids(g)]
        if not alive:
            return []
        time.sleep(0.05)
    return [pid for g in groups for pid in serveproc.group_pids(g)]


def _start_run(workload: str, seconds: int = 30) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def _wait_for_window(run: subprocess.Popen, timeout_s: float = 60.0) -> list[int]:
    """Wait until the last of the run's launches is serving traffic."""
    run_dirs = lambda: sorted(ROOT.glob(f".perfbench_runs/*-{run.pid}"))  # noqa: E731
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        dirs = run_dirs()
        last_log = dirs[0] / f"plain-serve-{bench.SETUP_REPEATS}.log" if dirs else None
        groups = _serve_children(run.pid)
        if last_log is not None and last_log.exists() and groups:
            time.sleep(4.0)  # provisioning, warm-up, then into the window
            return _serve_children(run.pid)
        time.sleep(0.05)
    raise AssertionError("the run never reached its timed window")


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL])
def test_killed_run_leaves_no_process_or_segment(sig):
    segments = serveproc.shm_segments()
    run = _start_run("engine_hot")
    try:
        groups = _wait_for_window(run)
        assert groups, "no serve process found"
        assert any(len(serveproc.group_pids(g)) >= 3 for g in groups), \
            "engine_hot should run a coordinator plus workers"
        run.send_signal(sig)
        out, _err = run.communicate(timeout=60)
    finally:
        if run.poll() is None:
            run.kill()
            run.wait()
    assert run.returncode != 0
    assert b'"correct"' not in out
    assert _wait_gone(groups) == []
    assert _spinners() == []
    deadline = time.monotonic() + 15
    while serveproc.shm_segments() - segments and time.monotonic() < deadline:
        time.sleep(0.1)
    assert serveproc.shm_segments() - segments == set()


def test_client_error_mid_window_leaves_no_process_or_segment(tmp_path, monkeypatch):
    segments = serveproc.shm_segments()
    wl = workloads.build("engine_hot", 3)
    started = []
    real_start = serveproc.ServeProcess.start

    def start(self):
        real_start(self)
        started.append(self.pid)

    monkeypatch.setattr(serveproc.ServeProcess, "start", start)
    calls = {"n": 0}
    real_call = streams.Conn.call

    async def call(self, request):
        if request.kind == "inject":
            calls["n"] += 1
            if calls["n"] == 5:
                raise RuntimeError("client failure injected by the test")
        return await real_call(self, request)

    monkeypatch.setattr(streams.Conn, "call", call)
    with pytest.raises(RuntimeError, match="injected by the test"):
        asyncio.run(bench.measure(wl, 5.0, False, 1, tmp_path, "plain"))
    assert started
    assert _wait_gone(started) == []
    assert serveproc.shm_segments() - segments == set()


def test_simulated_figures_repeat_for_a_seed():
    digests = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "deploy_churn", "--seed", "5",
             "--seconds", "8", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["failed"] == 0
        records = sorted(ROOT.glob(".perfbench_runs/deploy_churn-s5-t0-*/record.json"),
                         key=lambda p: p.stat().st_mtime)
        record = json.loads(records[-1].read_text())
        # a host whose hypervisor steals CPU fails the run on purpose; any
        # other problem is the program's or the benchmark's
        assert [p for p in record["problems"] if not p.startswith("host steal")] == []
        digests.append(record["sim_digest"])
    assert digests[0] == digests[1]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "switch_mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
