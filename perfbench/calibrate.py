"""Host-speed calibration: a fixed loop timed in the measuring thread.

The hosts this benchmark runs on are shared, and their speed drifts: the
same in-process set-up, repeated back to back, moves by 1.8x between runs
a minute apart and by 1.3x within one.  No timing can repeat better than
that, so each run probes the host's speed while it measures, by timing
:func:`loop` (about 0.3 ms of pure-Python work) in the thread that takes
the measurement:

* around every lap (a set-up, a checkpoint, a restart...): a probe right
  before it and one right after;
* in the timed phase: a probe between operations, every
  :data:`PROBE_EVERY` operations of each caller, outside their timings.

A probe is the median of :data:`PROBES` loops.

A time measured over a window is reported as ``raw × NOMINAL / speed``,
where ``speed`` is the loop time probed around that window: the time on a
host running at the nominal speed.  Rates are divided by the same factor.
The raw values are printed too.

The probe runs where the measured work runs, on warm caches.  A separate
sampler process that woke every 50 ms to time the loop tracked the host
much worse: its loop ran on caches other tenants had just used, and the
in-process set-up's calibrated median still moved by 1.8x between runs,
against 1.03-1.1x with the in-thread probe.

Every probe also reads the machine's stolen CPU time (:func:`cpu_ticks`):
time the hypervisor gave other guests comes in bursts the probe mostly
misses, and :meth:`Calibrator.least_stolen` picks the timed-phase windows
and laps the calibrated metrics keep.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Optional, Tuple

#: The probe's median loop time, in the measuring thread, on the 2-CPU host
#: the bounds were set on.
NOMINAL = 0.00033
#: Loops per probe (their median is the probe's value).
PROBES = 5
#: In the timed phase, each caller probes once every this many operations.
PROBE_EVERY = 20
#: A lap's speed is the median of the probes this close to it: its own two
#: and those of its neighbours.
LAP_MARGIN_NS = 50_000_000
#: Timed-phase windows, and laps with half this much around them, in which
#: the hypervisor took more than STEAL_LIMIT of the CPU time are left out
#: (but never more than half of them).  A serve-flat window with 2-4% stolen
#: already has a write p99 about 1.5 times that of one with none.
STEAL_WINDOW_NS = 1_000_000_000
STEAL_LIMIT = 0.03


def loop() -> float:
    """Wall seconds of one fixed unit of pure-Python work.

    The work allocates and hashes as the engine does (tuples, strings, dict
    updates, a sort).  Integer arithmetic alone runs from the CPU's caches
    and misses most of what neighbouring tenants take away: next to an
    in-process set-up it followed a 1.9x swing of the set-up's median by
    1.4x, where this loop leaves 1.1x.
    """
    started = time.perf_counter()
    table: dict = {}
    for index in range(300):
        key = (f"k{index % 97}", index % 13)
        table[key] = table.get(key, ()) + (index,)
    sorted(table.items())
    return time.perf_counter() - started


def cpu_ticks() -> Tuple[int, int]:
    """``(steal, total)`` CPU time of the machine so far, in ticks.

    Steal is the time the hypervisor ran other guests on this one's CPUs.
    ``(0, 0)`` where ``/proc/stat`` is missing.
    """
    try:
        with open("/proc/stat") as handle:
            ticks = [int(field) for field in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return (0, 0)
    return (ticks[7] if len(ticks) > 7 else 0, sum(ticks))


class Calibrator:
    """Probes of the host's speed, each stamped with when it was taken."""

    def __init__(self) -> None:
        self.samples: List[Tuple[int, float]] = []
        # (stamp, steal, total): cpu_ticks() at every probe.
        self.ticks: List[Tuple[int, int, int]] = []

    def probe(self, loops: int = PROBES) -> float:
        """Time ``loops`` loops now, in this thread; record and return their median."""
        seconds = statistics.median(loop() for _ in range(loops))
        stamp = time.perf_counter_ns()
        self.samples.append((stamp, seconds))
        self.ticks.append((stamp, *cpu_ticks()))
        return seconds

    def factor(self, start: int, end: int) -> float:
        """Multiply a time measured over ``[start, end]`` (``perf_counter_ns``) by this.

        ``NOMINAL`` over the median of the probes taken within the window.
        """
        inside = [seconds for stamp, seconds in list(self.samples) if start <= stamp <= end]
        if not inside:
            raise RuntimeError("no host-speed probe was taken in the window")
        return NOMINAL / statistics.median(inside)

    def lap_factor(self, start: int, end: int) -> float:
        """:meth:`factor` for a lap: its own probes and those within :data:`LAP_MARGIN_NS`."""
        return self.factor(start - LAP_MARGIN_NS, end + LAP_MARGIN_NS)

    def steal_share(self, start: int, end: int) -> Optional[float]:
        """The share of CPU time stolen between the first and last probe in the window."""
        inside = [(steal, total) for stamp, steal, total in list(self.ticks) if start <= stamp <= end]
        if len(inside) < 2 or inside[-1][1] <= inside[0][1]:
            return None
        return (inside[-1][0] - inside[0][0]) / (inside[-1][1] - inside[0][1])

    def least_stolen(self, windows: List[Tuple[int, int]]) -> List[int]:
        """Indices of the ``windows`` in which the hypervisor took little CPU time.

        Those within :data:`STEAL_LIMIT`; when fewer than half the windows
        are, the half with the least stolen time.  In time order.
        """
        shares = [self.steal_share(start, end) or 0.0 for start, end in windows]
        kept = [index for index, share in enumerate(shares) if share <= STEAL_LIMIT]
        if 2 * len(kept) < len(windows):
            kept = sorted(sorted(range(len(windows)), key=shares.__getitem__)[:(len(windows) + 1) // 2])
        return kept

    def clean_windows(self, start: int, end: int) -> List[Tuple[int, int]]:
        """The one-second windows of ``[start, end]`` that :meth:`least_stolen` keeps.

        The last window also takes the remainder, so every window holds
        about a second and half the windows are about half the time.
        """
        count = max(1, round((end - start) / STEAL_WINDOW_NS))
        bounds = [start + index * STEAL_WINDOW_NS for index in range(count)] + [end]
        windows = list(zip(bounds, bounds[1:]))
        return [windows[index] for index in self.least_stolen(windows)]

    def describe(self, start: int, end: int) -> str:
        inside = sorted(s for t, s in list(self.samples) if start <= t <= end)
        if not inside:
            return "no probes"
        share = self.steal_share(start, end)
        steal = "" if share is None else f", CPU time stolen by the hypervisor {share:.1%}"
        return (
            f"{len(inside)} probes, median {statistics.median(inside) * 1e3:.3f} ms, "
            f"p90 {inside[int(0.9 * (len(inside) - 1))] * 1e3:.3f} ms "
            f"(nominal {NOMINAL * 1e3:.3f} ms){steal}"
        )
