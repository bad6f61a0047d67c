"""Server processes the benchmark starts, drives and stops."""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional

from perfbench.common import WORK, BenchError, peak_rss_mb, pinned_env

HERE = os.path.dirname(os.path.abspath(__file__))
_LIVE: List["ServerProcess"] = []


class ServerProcess:
    """``repro-cli serve`` started through ``launch.py`` on an ephemeral port."""

    def __init__(self, args: List[str], *, name: str, trace: bool) -> None:
        self.name = name
        self.spans_path: Optional[str] = None
        if trace:
            os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
            self.spans_path = os.path.join(WORK, "spans", f"{name}.json")
        command = [
            sys.executable,
            os.path.join(HERE, "launch.py"),
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            *args,
        ]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            env=pinned_env(self.spans_path),
            text=True,
            # Its own process group: killing the group also ends the worker
            # processes an execution backend may have forked.
            start_new_session=True,
        )
        _LIVE.append(self)
        self.output: List[str] = []
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.url = self._wait_url(60.0)
        self.dumps = 0

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def _wait_url(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                line = ""
            if line is None or time.monotonic() > deadline:
                self.kill()
                raise BenchError(f"server {self.name} did not start: {''.join(self.output)[-2000:]}")
            if "listening on " in line:
                return line.split("listening on ", 1)[1].split()[0]

    @property
    def pid(self) -> int:
        return self.proc.pid

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pid)

    def dump_spans(self, timeout: float = 60.0) -> None:
        """Ask a traced server to write its spans now (before a kill)."""
        if self.spans_path is None:
            return
        self.dumps += 1
        os.kill(self.pid, signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                with open(self.spans_path) as handle:
                    if json.load(handle).get("dump", 0) >= self.dumps:
                        return
            except (FileNotFoundError, ValueError):
                pass
            time.sleep(0.05)
        raise BenchError(f"server {self.name} did not dump its spans")

    def kill(self) -> None:
        """SIGKILL: a crash, with no drain and no final checkpoint."""
        self._reap()

    def stop(self, timeout: float = 60.0) -> None:
        """SIGTERM: drain, final checkpoint, clean exit."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                pass
        self._reap()

    def _reap(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._reader.join(10.0)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        if self in _LIVE:
            _LIVE.remove(self)


def stop_all() -> None:
    for server in list(_LIVE):
        server.kill()
