"""The benchmark's HTTP caller: closed loop, one blocking request at a time."""

from __future__ import annotations

import itertools
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.client.api import APIClient, APIError

from perfbench.common import BenchError
from perfbench.tracing import REQUEST_HEADER

_RIDS = itertools.count(1)


class OpStats:
    """Attempts, failures, refusals and latencies of one operation type."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.retried = 0
        self.seconds: List[float] = []
        # (rid, start_ns, end_ns) of every completed op, joined to server spans.
        self.records: List[Tuple[str, int, int]] = []

    def to_dict(self) -> Dict[str, int]:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "refused": self.refused,
            "retried": self.retried,
            "completed": len(self.seconds),
        }


class Caller:
    """An :class:`APIClient` whose every call is timed and accounted.

    Retries are counted through the client's ``sleep`` hook: any retry
    inside an operation (a 429, a 503 with ``Retry-After``, a dropped
    connection) marks the operation refused, and a refused operation counts
    as failed even when a retry then succeeds.
    """

    def __init__(self, url: str, ops: Dict[str, OpStats], max_retries: int = 8) -> None:
        self.ops = ops
        self.retries = 0
        # Highest state version an acknowledgement reported.
        self.version = 0
        self.api = APIClient(url, timeout=120.0, max_retries=max_retries, sleep=self._sleep)

    def _sleep(self, seconds: float) -> None:
        self.retries += 1
        time.sleep(seconds)

    def call(self, op: str, method: str, path: str, body: Optional[dict] = None) -> Any:
        stats = self.ops.setdefault(op, OpStats())
        stats.attempted += 1
        rid = f"{op}-{next(_RIDS)}"
        retries = self.retries
        start = time.perf_counter_ns()
        try:
            result = self.api.request(method, path, body, headers={REQUEST_HEADER: rid})
        except APIError:
            stats.failed += 1
            stats.refused += self.retries > retries
            stats.retried += self.retries - retries
            raise
        end = time.perf_counter_ns()
        if self.retries > retries:
            stats.refused += 1
            stats.failed += 1
            stats.retried += self.retries - retries
        stats.seconds.append((end - start) / 1e9)
        stats.records.append((rid, start, end))
        if isinstance(result, dict):
            acked = result.get("results") or [result]
            version = acked[-1].get("version") if isinstance(acked[-1], dict) else None
            if isinstance(version, int):
                self.version = max(self.version, version)
        return result


def probe(url: str, method: str, path: str, body: Optional[dict] = None) -> Optional[Any]:
    """One unretried request; ``None`` while the server is not (yet) able."""
    api = APIClient(url, timeout=120.0, max_retries=0)
    try:
        return api.request(method, path, body)
    except APIError:
        return None


def wait_for(check, timeout: float, what: str, interval: float = 0.005) -> Any:
    deadline = time.monotonic() + timeout
    while True:
        value = check()
        if value is not None:
            return value
        if time.monotonic() > deadline:
            raise BenchError(f"timed out after {timeout:.0f}s waiting for {what}")
        time.sleep(interval)
