"""Child processes of the harness: the appliance and the figure worker.

Both children talk one JSON line at a time over their stdin/stdout
pipes.  Every child is started with ``src`` and the repo root on
``PYTHONPATH`` and is always reaped -- stopped over its pipe, or killed
-- before the harness moves on, so nothing outlives a run.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
import urllib.request

from benchmarks.appliance.metrics import parse_prometheus

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

#: how long a child may take to print a reply line
REPLY_TIMEOUT = 120.0


class ChildError(RuntimeError):
    """A child process died or stopped answering."""


class Child:
    """One line-protocol child process."""

    def __init__(self, script: str, *args: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, script), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            cwd=ROOT, text=True, bufsize=1)
        self.pid = self.proc.pid
        try:
            self.hello = self.read_reply()
        except BaseException:
            self.kill()
            raise

    def read_reply(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], REPLY_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise ChildError(f"child {self.pid} gave no reply "
                             f"(exit code {self.proc.poll()})")
        return json.loads(line)

    def command(self, line: str) -> dict:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self.read_reply()

    def peak_rss_mb(self) -> float:
        """High-water resident set size, from ``/proc/<pid>/status``."""
        with open(f"/proc/{self.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ChildError(f"no VmHWM for pid {self.pid}")

    def stop(self) -> None:
        """Ask the child to exit, wait for it; kill it if it will not."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=15)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    pass
        self.kill()

    def kill(self) -> None:
        """SIGKILL (a no-op once the child is gone) and reap."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


class Appliance(Child):
    """A live ``NestServer`` in its own process."""

    def __init__(self, config: dict, trace: bool = False):
        super().__init__("appliance_proc.py",
                         json.dumps({**config, "trace": trace}))
        self.ports = self.hello["ports"]
        self.recovery = self.hello["recovery"]
        try:
            self.first_reply()
        except BaseException:
            self.kill()
            raise
        #: spawn to first protocol reply, seconds
        self.start_to_reply_s = time.perf_counter() - self.spawned_at

    def first_reply(self) -> None:
        from repro.client import ChirpClient

        client = ChirpClient("127.0.0.1", self.ports["chirp"])
        try:
            client.listdir("/")
        finally:
            client.close()

    def snapshot(self) -> dict:
        """The scrape sources at one instant: ``/metrics`` text from the
        management endpoint, CPU seconds and storage bytes written from
        ``/proc/<pid>``."""
        url = f"http://127.0.0.1:{self.ports['mgmt']}/metrics"
        with urllib.request.urlopen(url, timeout=10) as reply:
            prom = parse_prometheus(reply.read().decode())
        with open(f"/proc/{self.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        write_bytes = 0
        with open(f"/proc/{self.pid}/io") as io_stats:
            for line in io_stats:
                if line.startswith("write_bytes:"):
                    write_bytes = int(line.split()[1])
        return {"prom": prom,
                "cpu_s": (int(fields[11]) + int(fields[12])) / ticks,
                "write_bytes": write_bytes}


class FiguresWorker(Child):
    """A process that has imported the DES figure modules."""

    def __init__(self):
        super().__init__("figures_proc.py")
        self.start_to_reply_s = time.perf_counter() - self.spawned_at

    def run(self, figures: list[str], trace: bool) -> dict:
        return self.command(f"run {','.join(figures)} {int(trace)}")
