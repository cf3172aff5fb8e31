"""The server under test: spawn, first-reply set-up timing, CPU, stop."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep

from gen import Conn

CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Flags every workload's server gets.
COMMON_ARGS = ("--workers", "1", "--port", "0")


def _cpu_ticks(pid: int) -> int:
    """utime + stime of one process, in clock ticks (0 once it is gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0
    fields = stat[stat.rindex(")") + 2:].split()
    return int(fields[11]) + int(fields[12])


def _children(pid: int) -> list[int]:
    out: list[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            text = Path(f"/proc/{pid}/task/{task}/children").read_text()
            out.extend(int(c) for c in text.split())
    except OSError:
        pass
    return out


class Server:
    """One ``python -m repro serve`` subprocess (or the traced launcher)."""

    def __init__(
        self,
        root: Path,
        workdir: Path,
        serve_args: list[str],
        *,
        tag: str,
        launcher: "list[str] | None" = None,
    ):
        self.port_file = workdir / f"port-{tag}"
        self.log_path = workdir / f"server-{tag}.log"
        self.args = [*COMMON_ARGS, "--port-file", str(self.port_file), *serve_args]
        entry = launcher or ["-m", "repro", "serve"]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self._log = open(self.log_path, "wb")
        self.spawned = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *entry, *self.args],
            cwd=root,
            env=env,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.port = 0

    def wait_port(self, timeout: float = 120.0) -> int:
        deadline = perf_counter() + timeout
        while perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited early ({self.proc.returncode}): "
                    + self.log_path.read_text(errors="replace")[-2000:]
                )
            try:
                text = self.port_file.read_text()
                if text.endswith("\n"):
                    self.port = int(text)
                    return self.port
            except (OSError, ValueError):
                pass
            sleep(0.002)
        raise RuntimeError("server did not start listening in time")

    def first_ok(self, probe: dict, timeout: float = 120.0) -> float:
        """Seconds from spawn to the first ok reply to *probe*."""
        self.wait_port(timeout)
        conn = Conn(self.port)
        try:
            reply = conn.request(probe, timeout=timeout)
        finally:
            conn.close()
        if not reply.get("ok"):
            raise RuntimeError(f"set-up probe failed: {reply}")
        return perf_counter() - self.spawned

    def cpu_s(self) -> dict[str, float]:
        """CPU seconds so far of the front process and of its workers."""
        workers = _children(self.proc.pid)
        return {
            "front": _cpu_ticks(self.proc.pid) / CLK_TCK,
            "workers": sum(_cpu_ticks(pid) for pid in workers) / CLK_TCK,
        }

    def stop(self, timeout: float = 20.0) -> int:
        """Ask for a clean shutdown; kill the group if it does not come."""
        if self.proc.poll() is None and self.port:
            try:
                conn = Conn(self.port)
                conn.request({"op": "shutdown"}, timeout=10.0)
                conn.close()
            except (OSError, ValueError):
                pass
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
        self._log.close()
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except OSError:
                pass
            self.proc.wait()
        if not self._log.closed:
            self._log.close()
