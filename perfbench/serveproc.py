"""Launch, observe and tear down one ``serve`` process tree.

``serve`` runs in a process group of its own, which holds the
coordinator, every engine worker and the multiprocessing resource tracker.
It stays in the benchmark's session: a session of its own would also get
a scheduler autogroup of its own, and the idle spinners (below) could then
take CPU from it.

Teardown is SIGINT to the coordinator (it drains, closes the engine and
unlinks its rings), a bounded wait, then SIGKILL to the whole group, then
unlinking any ``/dev/shm/psm_*`` segment that appeared during the run.  The
coordinator also gets a parent-death signal, so a benchmark killed outright
takes ``serve`` with it; its workers and resource tracker then exit on
their pipes' EOF.

Readiness is decided by a successful ``ping`` RPC, not by the "listening"
line: ``serve`` prints that line before ``asyncio.run`` binds the socket,
so a client that connects on it can be refused.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Counters

SHM_DIR = Path("/dev/shm")
CLK_TCK = os.sysconf("SC_CLK_TCK")


class ServeError(RuntimeError):
    pass


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def shm_segments() -> set[str]:
    try:
        return {p.name for p in SHM_DIR.iterdir() if p.name.startswith("psm_")}
    except FileNotFoundError:
        return set()


def group_pids(pgid: int) -> list[int]:
    """Live (non-zombie) pids whose process group is ``pgid``."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(entry.name))
    return pids


def proc_sample(pid: int) -> dict | None:
    """CPU seconds, peak RSS (MB) and context switches of one pid."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    fields = stat[stat.rindex(")") + 2:].split()
    cpu = (int(fields[11]) + int(fields[12])) / CLK_TCK
    info = {}
    for line in status.splitlines():
        key, _, value = line.partition(":")
        info[key] = value.strip()
    hwm_kb = int(info.get("VmHWM", "0 kB").split()[0])
    switches = int(info.get("voluntary_ctxt_switches", 0)) + int(
        info.get("nonvoluntary_ctxt_switches", 0))
    try:
        cmdline = Path(f"/proc/{pid}/cmdline").read_bytes().replace(b"\0", b" ")
    except OSError:
        cmdline = b""
    return {"cpu_s": cpu, "hwm_mb": hwm_kb / 1024.0, "ctx": switches,
            "cmdline": cmdline.decode(errors="replace")}


def cpu_clock_s(pids: list[int]) -> float:
    """CPU seconds the processes ``pids`` have used, to the nanosecond and
    including a slice still running: each one's process CPU-time clock
    (``clock_getcpuclockid``).  The ``/proc/<pid>/stat`` figures count
    10 ms ticks, and ``/proc/<pid>/sched`` lags a running task."""
    total = 0.0
    for pid in pids:
        try:
            total += time.clock_gettime(((~pid) << 3) | 2)  # CPUCLOCK_SCHED of the process
        except OSError:
            continue
    return total


def host_cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the whole host since boot: time the
    hypervisor gave this VM's CPUs to someone else."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def _set_pdeathsig() -> None:  # runs in the child between fork and exec
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


class Watchdog:
    """The ``watchdog.py`` process: kills registered ``serve`` groups if
    the benchmark dies before it could stop them itself."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("watchdog.py"))],
            stdin=subprocess.PIPE, text=True, start_new_session=True)

    def tell(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)


class IdleSpinners:
    """One ``SCHED_IDLE`` spinner (``calibrate.py``) pinned to each usable CPU.

    On a virtual machine a CPU with nothing to run halts, and the
    hypervisor hands its physical CPU to other guests.  Every reply that
    wakes the client, ``serve`` or an engine worker then first waits for
    the host to run that CPU again; the wait shows as steal in
    ``/proc/stat`` and, with the host's load, sets how fast a run reads.
    With a spinner on every CPU no CPU halts, and a woken task preempts
    the spinner inside the guest instead (``SCHED_IDLE`` is the lowest
    scheduling class).  The spinners' work doubles as the measure of the
    host's speed (see ``calibrate.py``); :attr:`counters` reads it.  They
    run in process groups of their own, registered with the watchdog, and
    die with the benchmark.
    """

    def __init__(self, watchdog: "Watchdog", counters_path: Path):
        self.watchdog = watchdog
        self.procs: list[subprocess.Popen] = []
        cpus = sorted(os.sched_getaffinity(0))
        self.counters = Counters(counters_path, len(cpus))
        spinner = Path(__file__).with_name("calibrate.py")
        for slot, cpu in enumerate(cpus):
            # a process group of its own for the watchdog, in the
            # benchmark's session (see the module docstring)
            proc = subprocess.Popen([sys.executable, str(spinner), str(counters_path), str(slot)],
                                    stdin=subprocess.DEVNULL, process_group=0,
                                    preexec_fn=_set_pdeathsig)
            self.procs.append(proc)
            watchdog.tell(f"+{proc.pid}")
            os.sched_setaffinity(proc.pid, {cpu})
        self.counters.wait_started()

    def close(self) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait(timeout=30)
            self.watchdog.tell(f"-{proc.pid}")
        self.counters.close()


class ServeProcess:
    """One ``serve`` process tree, started by :meth:`start`."""

    def __init__(self, root: Path, serve_args: list[str], log_path: Path,
                 launcher: list[str] | None = None, watchdog: Watchdog | None = None):
        self.root = root
        self.port = free_port()
        self.log_path = log_path
        self.argv = [sys.executable, *(launcher or ["-m", "repro.cli"]), "serve",
                     "--port", str(self.port), *serve_args]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc: subprocess.Popen | None = None
        self.shm_before: set[str] = set()
        self.watchdog = watchdog

    def start(self) -> None:
        self.shm_before = shm_segments()
        self._log = open(self.log_path, "ab")
        self.proc = subprocess.Popen(
            self.argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT, process_group=0,
            preexec_fn=_set_pdeathsig,
        )
        if self.watchdog is not None:
            self.watchdog.tell(f"+{self.proc.pid}")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        """Poll ``ping`` until it answers (see the module docstring)."""
        deadline = time.monotonic() + timeout_s
        request = (json.dumps({"id": 0, "method": "ping", "params": {}}) + "\n").encode()
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise ServeError(f"serve exited with {self.proc.returncode}; see {self.log_path}")
            try:
                with socket.create_connection(("127.0.0.1", self.port), timeout=5) as sock:
                    sock.sendall(request)
                    reply = sock.makefile("rb").readline()
                if json.loads(reply).get("ok"):
                    return
            except (ConnectionRefusedError, ConnectionResetError, ValueError):
                pass
            time.sleep(0.01)
        raise ServeError(f"serve did not answer ping within {timeout_s} s")

    def tree(self) -> dict[int, dict]:
        samples = {}
        for pid in group_pids(self.pid):
            sample = proc_sample(pid)
            if sample is not None:
                samples[pid] = sample
        return samples

    def stop(self, drain_timeout_s: float = 10.0) -> dict:
        """Drain, then kill whatever is left; returns what had to be forced.

        SIGINT and SIGTERM to the benchmark wait until teardown is done."""
        if self.proc is None:
            return {"killed": [], "unlinked": []}
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
        try:
            return self._stop(drain_timeout_s)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)

    def _stop(self, drain_timeout_s: float) -> dict:
        report = {"killed": [], "unlinked": []}
        pgid = self.proc.pid
        if self.proc.poll() is None:
            try:
                os.kill(pgid, signal.SIGINT)
                self.proc.wait(timeout=drain_timeout_s)
            except subprocess.TimeoutExpired:
                pass
            except ProcessLookupError:
                pass
        # The resource tracker exits on its own once the coordinator's end
        # of its pipe closes; give it a moment before forcing it.
        deadline = time.monotonic() + 2
        while group_pids(pgid) and time.monotonic() < deadline:
            time.sleep(0.02)
        leftovers = group_pids(pgid)
        if leftovers:
            report["killed"] = leftovers
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if self.proc.poll() is None:
            self.proc.wait(timeout=10)
        deadline = time.monotonic() + 10
        while group_pids(pgid) and time.monotonic() < deadline:
            time.sleep(0.02)
        survivors = group_pids(pgid)
        for name in sorted(shm_segments() - self.shm_before):
            try:
                (SHM_DIR / name).unlink()
                report["unlinked"].append(name)
            except FileNotFoundError:
                pass
        self._log.close()
        self.proc = None
        if self.watchdog is not None and not survivors:
            self.watchdog.tell(f"-{pgid}")
        if survivors:
            raise ServeError(f"processes survived SIGKILL: {survivors}")
        return report
