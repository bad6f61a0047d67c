"""Shared helpers: statistics, pinned environment, resource probes, results."""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import statistics
import subprocess
import sys
from typing import Dict, Iterable, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for data directories, span dumps and result files.  It sits
#: inside the checkout (the benchmark writes nowhere else) and is ignored by git.
WORK = os.path.join(ROOT, ".perfbench")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, server failed...)."""


class GateError(AssertionError):
    """A correctness gate saw a wrong output: the run must not report success."""


def pinned_env(trace_file: Optional[str] = None) -> Dict[str, str]:
    """The environment for every process the benchmark starts.

    Every ``REPRO_*`` variable is dropped, so a CI leg that sets, say,
    ``REPRO_BACKEND=processes:2`` cannot silently change the measured path.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    if trace_file is not None:
        env["PERFBENCH_SPANS"] = trace_file
    return env


def clear_repro_env() -> None:
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q / 100 * (len(ordered) - 1))))
    return ordered[index]


def latency_summary(seconds: Sequence[float]) -> Dict[str, float]:
    """Median and p99 in milliseconds, with the sample count behind them."""
    if not seconds:
        raise BenchError("no latency samples were recorded")
    p99 = percentile(seconds, 99)
    return {
        "p50_ms": statistics.median(seconds) * 1e3,
        "p99_ms": p99 * 1e3,
        "count": len(seconds),
        "beyond_p99": sum(1 for value in seconds if value > p99),
    }


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def error_rate(attempted: int, failed: int) -> float:
    """The add-one (rule of succession) estimate of the failure probability.

    ``(failed + 1) / (attempted + 2)`` is never zero, so it can be compared
    as a share of a median, and a single failure roughly doubles it.
    """
    return (failed + 1) / (attempted + 2)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """VmHWM (peak resident set) of a process, in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM in {path}")


def dir_mb(path: str) -> float:
    total = 0
    for folder, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(folder, name))
            except FileNotFoundError:
                pass
    return total / (1024.0 * 1024.0)


def fresh_dir(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def source_fingerprint() -> Dict[str, str]:
    """The commit when git knows it, and always a hash of ``src/``."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    commit = "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def host_config() -> Dict[str, object]:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        **source_fingerprint(),
    }


def require_sources() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no repro sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, SRC)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def print_table(title: str, metrics: Dict[str, Dict[str, object]]) -> None:
    print(f"== {title}")
    width = max((len(name) for name in metrics), default=10)
    for name, entry in metrics.items():
        print(f"  {name:<{width}}  {entry['value']:>14.6g} {entry['unit']}")
