"""HTTP workloads: ``serve-flat`` and ``durable-restart``.

Both drive ``repro-cli serve`` processes through the SDK
(:class:`repro.client.api.APIClient`) from this one process, with at most
two threads (one writer, one reader) and one connection each: a closed
loop, every caller blocks on its reply.  They share one script:

1. **set-up**, several times: start a durable server (``--fsync batch``)
   on a fresh data directory, load the datasets, register the views (which
   materializes them).  ``setup_s`` is the median.
2. **timed phase** (``--seconds``): one writer sends one-row replacements
   to the flat relation (insert a fresh row, delete the row inserted the
   window size earlier, so sizes stay constant) while one reader reads the
   whole filter view.  Gate: served dataset ≡ the acknowledged rows, and
   served view ≡ a plain-Python recompute.
3. **lifecycle cycles**: checkpoint; bulk tail through async ingest
   (coalescing active); crash (SIGKILL) and restart on the same directory;
   bootstrap a replica on an empty directory; kill the primary, promote
   the replica, and write to it.  Gates: restarted ≡ pre-restart, replica
   ≡ primary, the post-failover write is visible, and the final state ≡ a
   recompute.  The promoted replica is the next cycle's primary.

``serve-flat`` has one tenant, ``flat``: 2,000 movies and one classic
filter view.  ``durable-restart`` adds a second tenant, ``large``: 1,000
movies with the nested genre self-join (about 130k inner tuples), which
its bulk tail updates and which recovery and bootstrap rebuild.  The
foreground traffic stays on ``flat`` because the serving layer republishes
every view of a tenant after each write: next to the large view a
one-row write costs about 100 ms, too few for a p99 in one run.
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import threading
import time
from collections import defaultdict, deque
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from perfbench import calibrate, gates
from perfbench.client import Caller, OpStats, probe, wait_for
from perfbench.common import dir_mb, error_rate, fresh_dir, latency_summary, median
from perfbench.proc import ServerProcess

GENRES = ("Drama", "Action", "Comedy", "Crime", "SciFi", "Romance", "Horror", "Animation")
FILTER_VIEW = {
    "from": "F",
    "var": "m",
    "where": ["eq", ["field", "m", "gen"], ["const", "Drama"]],
    "select": [["field", "m", "name"]],
}
NEIGHBOURS_VIEW = {
    "from": "M",
    "var": "m",
    "select": [
        ["field", "m", "name"],
        [
            "nest",
            {
                "from": "M",
                "var": "m2",
                "where": [
                    "and",
                    ["eq", ["field", "m", "gen"], ["field", "m2", "gen"]],
                    ["ne", ["field", "m", "name"], ["field", "m2", "name"]],
                ],
                "select": [["field", "m2", "name"]],
            },
        ],
    ],
}
#: Tenants: the flat relation's (foreground traffic) and the large view's.
TENANT_OF = {"F": "flat", "M": "large"}
VIEWS = {
    "flat": ("dramas", FILTER_VIEW, "classic"),
    "large": ("neighbours", NEIGHBOURS_VIEW, "nested"),
}
RECOMPUTE = {"F": gates.genre_filter, "M": gates.genre_neighbours}
#: Checkpoints per cycle: one is a few tens of milliseconds, so take several.
CHECKPOINTS = 6
#: Server flags every run uses; the queue holds a whole bulk tail, so the
#: async ingest is never refused and coalescing sees a standing queue.
SERVER_FLAGS = ["--fsync", "batch", "--queue-depth", "8192"]


class Shape(NamedTuple):
    big_rows: int  # 0: no large tenant
    tail: int  # bulk-tail updates per cycle
    tail_relation: str
    cycles: int  # lifecycle cycles: each lifecycle metric is their median
    setups: int  # set-ups: ``setup_s`` is their median


FLAT_ROWS = 2000
SERVE_FLAT = Shape(big_rows=0, tail=600, tail_relation="F", cycles=8, setups=8)
DURABLE_RESTART = Shape(big_rows=1000, tail=192, tail_relation="M", cycles=5, setups=3)


class Stream:
    """A seeded FIFO window over one relation: every update replaces a row.

    All rows are generated up front; ``cursor`` counts the updates the
    server acknowledged, so :meth:`state` is the relation they imply.
    """

    def __init__(self, relation: str, rows: int, seed: int, updates: int) -> None:
        rng = random.Random(f"{relation}-{seed}")
        self.relation = relation

        def row(prefix: str, index: int) -> Tuple[str, str, str]:
            return (
                f"{prefix}{index:07d}",
                rng.choice(GENRES),
                f"Director{rng.randrange(40)}",
            )

        self.initial = [row(f"{relation}s{seed}-", index) for index in range(rows)]
        self.fresh = [row(f"{relation}u{seed}-", index) for index in range(updates)]
        # Update i deletes the i-th oldest row: initial rows first, then fresh ones.
        self.pool = self.initial + self.fresh
        self.cursor = 0

    def payload(self, index: Optional[int] = None) -> Dict[str, Any]:
        """The wire form of update ``index`` (default: the next one)."""
        index = self.cursor if index is None else index
        return {
            self.relation: {
                "pairs": [[list(self.fresh[index]), 1], [list(self.pool[index]), -1]]
            }
        }

    def state(self) -> List[Tuple[str, str, str]]:
        live = deque(self.initial)
        for index in range(self.cursor):
            live.popleft()
            live.append(self.fresh[index])
        return list(live)


class Run:
    """Everything one workload run measured."""

    def __init__(self) -> None:
        self.ops: Dict[str, OpStats] = {}
        # Host-speed probes (see calibrate.py).
        self.host = calibrate.Calibrator()
        # True where the laps' work runs in this process (no server).
        self.local_laps = False
        # What end_to_end() left out for CPU time the hypervisor took, and
        # the latencies it kept.
        self.left_out: Dict[str, Any] = {}
        # Lifecycle measurements: name -> [(raw value, start_ns, end_ns)].
        self.windows: Dict[str, List[Tuple[float, int, int]]] = defaultdict(list)
        self.checkpoint_bytes: List[int] = []
        self.disk_mb: List[float] = []
        self.peak_rss_mb: List[float] = []
        self.setup_window: Tuple[int, int] = (0, 0)
        self.timed: Tuple[int, int] = (0, 0)
        self.bulk: List[Tuple[int, int]] = []
        self.timed_seconds = 0.0
        self.span_files: List[str] = []
        self.config: Dict[str, Any] = {}
        self.retries = 0
        # Per tenant, the highest state version an acknowledgement reported.
        self.acked: Dict[str, int] = {}
        # The in-process tracer's spans (server spans are read from span_files).
        self.trace_dump: Optional[Dict[str, Any]] = None

    def start_lap(self) -> int:
        """Probe the host's speed, then return the lap's start (``perf_counter_ns``)."""
        self.host.probe()
        return time.perf_counter_ns()

    def lap(self, name: str, started: int, count: int = 0) -> None:
        """Record the seconds since ``started`` under ``name``, then probe again.

        With ``count``, record ``count`` per second instead (a rate).
        """
        now = time.perf_counter_ns()
        seconds = (now - started) / 1e9
        self.windows[name].append((count / seconds if count else seconds, started, now))
        self.host.probe()

    def attempted(self) -> int:
        return sum(stats.attempted for stats in self.ops.values())

    def failed(self) -> int:
        return sum(stats.failed for stats in self.ops.values())


# --------------------------------------------------------------------------- #
def _start(run: Run, data_dir: str, name: str, trace: bool, extra: List[str] = ()) -> ServerProcess:
    server = ServerProcess(["--data-dir", data_dir, *SERVER_FLAGS, *extra], name=name, trace=trace)
    if server.spans_path is not None:
        run.span_files.append(server.spans_path)
    return server


def _setup(run: Run, streams: Dict[str, Stream], trace: bool, index: int):
    data_dir = fresh_dir("data", f"primary-setup{index}")
    started = run.start_lap()
    server = _start(run, data_dir, f"setup{index}", trace)
    caller = Caller(server.url, run.ops)
    for relation, stream in streams.items():
        tenant = TENANT_OF[relation]
        view, query, strategy = VIEWS[tenant]
        caller.call(
            "setup", "POST", f"v1/{tenant}/datasets",
            {"name": relation, "fields": ["name", "gen", "dir"],
             "rows": [list(row) for row in stream.initial]},
        )
        caller.version = 0
        caller.call(
            "setup", "POST", f"v1/{tenant}/views",
            {"name": view, "query": query, "strategy": strategy},
        )
        run.acked[tenant] = caller.version
    run.lap("setup_s", started)
    run.retries += caller.retries
    return server, data_dir


def _timed_phase(run: Run, server: ServerProcess, stream: Stream, seconds: float) -> None:
    tenant = TENANT_OF[stream.relation]
    view = VIEWS[tenant][0]
    writer = Caller(server.url, run.ops)
    reader = Caller(server.url, run.ops)
    stop = threading.Event()
    errors: List[BaseException] = []

    def write_loop() -> None:
        try:
            while not stop.is_set() and stream.cursor < len(stream.fresh):
                writer.call("write", "POST", f"v1/{tenant}/apply",
                            {"updates": [stream.payload()]})
                stream.cursor += 1
                if stream.cursor % calibrate.PROBE_EVERY == 0:
                    run.host.probe()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)
            stop.set()

    def read_loop() -> None:
        try:
            for reads in itertools.count(1):
                if stop.is_set():
                    break
                reader.call("read", "GET", f"v1/{tenant}/views/{view}")
                if reads % calibrate.PROBE_EVERY == 0:
                    run.host.probe()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)
            stop.set()

    threads = [threading.Thread(target=write_loop), threading.Thread(target=read_loop)]
    run.host.probe()
    start = time.perf_counter_ns()
    for thread in threads:
        thread.start()
    stop.wait(seconds)
    stop.set()
    for thread in threads:
        thread.join(120.0)
    end = time.perf_counter_ns()
    run.host.probe()
    run.timed = (start, end)
    run.timed_seconds = (end - start) / 1e9
    run.retries += writer.retries + reader.retries
    run.acked[tenant] = max(run.acked[tenant], writer.version)
    if errors:
        raise errors[0]


def _snapshot(url: str, tenant: str, version: int = 0) -> Dict[str, Any]:
    """A tenant's datasets and views at one version (at least ``version``).

    An acknowledgement can precede the publication of the snapshot that
    contains it, so a read after an ack waits for the acked version.
    """
    api = Caller(url, {}).api

    def published() -> Optional[Dict[str, Any]]:
        body = api.get(f"v1/{tenant}/snapshot")
        return body if body["version"] >= version else None

    body = wait_for(published, 60.0, f"version {version} of {tenant} to be published")
    return {
        "version": body["version"],
        "views": {name: gates.wire_bag(page["pairs"]) for name, page in body["views"].items()},
        "datasets": {name: page["pairs"] for name, page in body["datasets"].items()},
        "view_pairs": {name: page["pairs"] for name, page in body["views"].items()},
    }


def _snapshots(url: str, run: Run, pinned: Optional[Dict[str, int]] = None) -> Dict[str, Dict[str, Any]]:
    versions = pinned or run.acked
    return {tenant: _snapshot(url, tenant, versions[tenant]) for tenant in run.acked}


def _check_acknowledged(label: str, states: Dict[str, Dict[str, Any]], streams: Dict[str, Stream]) -> None:
    for relation, stream in streams.items():
        tenant = TENANT_OF[relation]
        gates.acknowledged_state(
            f"{label} ({tenant})", stream.state(), states[tenant]["datasets"][relation],
            states[tenant]["view_pairs"][VIEWS[tenant][0]], RECOMPUTE[relation],
        )


def _serving(url: str, versions: Dict[str, int]) -> Optional[bool]:
    """True once every tenant answers a view read at its expected version."""
    for tenant, version in versions.items():
        body = probe(url, "GET", f"v1/{tenant}/views/{VIEWS[tenant][0]}?limit=1")
        if body is None or body.get("version") != version:
            return None
    return True


def _bulk_tail(run: Run, server: ServerProcess, stream: Stream, count: int) -> None:
    """``count`` updates through async ingest, then a sync barrier."""
    tenant = TENANT_OF[stream.relation]
    caller = Caller(server.url, run.ops)
    chunk = 16
    start = run.start_lap()
    sent = 0
    while sent < count:
        size = min(chunk, count - sent)
        payloads = [stream.payload(stream.cursor + offset) for offset in range(size)]
        caller.call("ingest", "POST", f"v1/{tenant}/apply",
                    {"updates": payloads, "mode": "async"})
        stream.cursor += size
        sent += size
    # The ingest queue is FIFO: a sync no-op acks only after every update above.
    caller.call("ingest", "POST", f"v1/{tenant}/apply",
                {"updates": [{stream.relation: {"rows": []}}], "mode": "sync"})
    run.bulk.append((start, time.perf_counter_ns()))
    run.lap("ingest_ops_s", start, count=count)
    run.retries += caller.retries
    run.acked[tenant] = max(run.acked[tenant], caller.version)


def _cycle(
    run: Run, shape: Shape, streams: Dict[str, Stream], primary: ServerProcess,
    data_dir: str, trace: bool, index: int,
) -> Tuple[ServerProcess, str]:
    caller = Caller(primary.url, run.ops)
    for _ in range(CHECKPOINTS):
        started = run.start_lap()
        for tenant in run.acked:
            caller.call("checkpoint", "POST", f"v1/{tenant}/checkpoint")
        run.lap("checkpoint_s", started)
    run.checkpoint_bytes.append(sum(
        int(dir_mb(os.path.join(data_dir, tenant, "checkpoints")) * 1024 * 1024)
        for tenant in run.acked
    ))
    _bulk_tail(run, primary, streams[shape.tail_relation], shape.tail)
    run.disk_mb.append(dir_mb(data_dir))
    before = _snapshots(primary.url, run)
    _check_acknowledged(f"cycle {index} before restart", before, streams)
    versions = {tenant: state["version"] for tenant, state in before.items()}
    run.peak_rss_mb.append(primary.peak_rss_mb())
    primary.dump_spans()
    primary.kill()

    # Cold start: a new server on the crashed primary's directory.
    started = run.start_lap()
    restarted = _start(run, data_dir, f"restart{index}", trace)
    wait_for(lambda: _serving(restarted.url, versions), 120.0, "the restarted primary")
    run.lap("cold_start_s", started)
    after = _snapshots(restarted.url, run, versions)
    for tenant in versions:
        gates.same_version_state(
            f"cycle {index} restarted vs pre-restart ({tenant})", before[tenant], after[tenant]
        )

    # Replica bootstrap on an empty directory.
    replica_dir = fresh_dir("data", f"replica{index}")
    started = run.start_lap()
    replica = _start(run, replica_dir, f"replica{index}", trace,
                     ["--replica-of", restarted.url, "--poll-wait", "0.5"])
    wait_for(lambda: _serving(replica.url, versions), 120.0, "the replica to catch up")
    run.lap("replica_bootstrap_s", started)
    mirrored = _snapshots(replica.url, run, versions)
    for tenant in versions:
        gates.same_version_state(
            f"cycle {index} replica vs primary ({tenant})", after[tenant], mirrored[tenant]
        )

    # Failover: kill the primary, promote the replica, write to it.
    restarted.dump_spans()
    stream = streams["F"]
    inserted = stream.fresh[stream.cursor]
    started = run.start_lap()
    restarted.kill()
    for tenant in versions:
        wait_for(lambda: probe(replica.url, "POST", f"v1/{tenant}/promote", {}), 60.0, "promotion")
    failover = Caller(replica.url, run.ops)
    tenant = TENANT_OF["F"]
    failover.call("failover", "POST", f"v1/{tenant}/apply", {"updates": [stream.payload()]})
    run.lap("failover_s", started)
    stream.cursor += 1
    run.retries += caller.retries + failover.retries
    run.acked[tenant] = max(run.acked[tenant], failover.version)
    visible = gates.wire_bag(_snapshot(replica.url, tenant, run.acked[tenant])["datasets"]["F"])
    gates.write_visible(f"cycle {index} post-failover write", visible, inserted)
    return replica, replica_dir


def _record_config(run: Run, server: ServerProcess) -> None:
    api = Caller(server.url, {}).api
    tenant = api.get("stats")["tenants"][TENANT_OF["F"]]
    storage = api.get(f"v1/{TENANT_OF['F']}/storage")["storage"]
    run.config = {
        "server_flags": SERVER_FLAGS,
        "tenants": {t: VIEWS[t][2] for t in run.acked},
        "fsync": (tenant.get("durability") or {}).get("policy"),
        "backend": tenant.get("backend"),
        "shards": storage.get("shards"),
        "refresh_workers": storage.get("parallel_views"),
        "coalesce_bound": tenant.get("coalesce_bound"),
        "queue_capacity": tenant.get("queue_capacity"),
    }


def run_shape(shape: Shape, seed: int, seconds: float, trace: bool) -> Run:
    run = Run()
    streams = {"F": Stream("F", FLAT_ROWS, seed, 40000)}
    if shape.big_rows:
        streams["M"] = Stream("M", shape.big_rows, seed, shape.tail * shape.cycles + 8)
    # The generated inputs live for the whole run: keep them out of the
    # collector, so its pauses come from the program, not the harness.
    gc.collect()
    gc.freeze()
    primary: Optional[ServerProcess] = None
    data_dir = ""
    servers: List[ServerProcess] = []
    try:
        setup_start = time.perf_counter_ns()
        for index in range(shape.setups):
            if primary is not None:
                primary.kill()
            primary, data_dir = _setup(run, streams, trace, index)
            servers.append(primary)
        assert primary is not None
        run.setup_window = (setup_start, time.perf_counter_ns())
        _record_config(run, primary)
        _check_acknowledged("after set-up", _snapshots(primary.url, run), streams)
        _timed_phase(run, primary, streams["F"], seconds)
        _check_acknowledged("after the timed phase", _snapshots(primary.url, run), streams)
        for index in range(shape.cycles):
            primary, data_dir = _cycle(run, shape, streams, primary, data_dir, trace, index)
            servers.append(primary)
        _check_acknowledged("after the last failover", _snapshots(primary.url, run), streams)
        primary.stop()
    finally:
        for server in servers:
            server.kill()
    return run


def _kept(stats: OpStats, windows: List[Tuple[int, int]]) -> List[float]:
    """The latencies of the operations that started within ``windows``."""
    return [
        seconds for seconds, (_rid, began, _end) in zip(stats.seconds, stats.records)
        if any(left <= began < right for left, right in windows)
    ]


def end_to_end(run: Run) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The end-to-end metrics, host-speed calibrated and raw.

    See ``calibrate.py``: a time measured over a window is scaled by the
    host speed probed around that window, a rate divided by it.  The
    calibrated values also leave out what ran while the hypervisor took
    more than ``STEAL_LIMIT`` of the CPU time, but never more than half:
    the operations that started in such a one-second window of the timed
    phase, and such laps.  The raw values keep everything.
    """
    start, end = run.timed
    clean = run.host.clean_windows(start, end)
    clean_seconds = sum(right - left for left, right in clean) / 1e9
    run.left_out = {"timed_share": 1 - clean_seconds / run.timed_seconds, "laps": 0}
    timed = run.host.factor(start, end)
    raw: Dict[str, float] = {}
    calibrated: Dict[str, float] = {}
    for op in ("write", "read"):
        stats = run.ops[op]
        run.left_out[op] = kept = [seconds * timed for seconds in _kept(stats, clean)]
        for values, seconds, latencies in (
            (raw, run.timed_seconds, stats.seconds),
            (calibrated, clean_seconds * timed, kept),
        ):
            summary = latency_summary(latencies)
            values[f"{op}_p50_ms"] = summary["p50_ms"]
            values[f"{op}_p99_ms"] = summary["p99_ms"]
            values[f"{op}_ops_s"] = len(latencies) / seconds
    # A lap run in this process is calibrated by the probes around it.  A
    # lap a server runs is calibrated by every probe of the run: the probes
    # around it time an idle client, and one pair of them is mostly noise.
    whole_run = run.host.factor(0, time.perf_counter_ns())
    margin = calibrate.STEAL_WINDOW_NS // 2
    for name, laps in run.windows.items():
        raw[name] = median(value for value, _start, _end in laps)
        kept = [laps[index] for index in run.host.least_stolen(
            [(began - margin, ended + margin) for _value, began, ended in laps]
        )]
        run.left_out["laps"] += len(laps) - len(kept)
        calibrated[name] = median(
            value / factor if name.endswith("_ops_s") else value * factor
            for value, factor in (
                (value, run.host.lap_factor(began, ended) if run.local_laps else whole_run)
                for value, began, ended in kept
            )
        )
    for name, values in (("disk_mb", run.disk_mb), ("peak_rss_mb", run.peak_rss_mb)):
        raw[name] = calibrated[name] = median(values)
    # The timed phase's operation count moves with host speed; count it at
    # the calibrated rates so the add-one failure estimate does not.
    attempted = run.attempted()
    timed_ops = run.ops["write"].attempted + run.ops["read"].attempted
    raw["error_rate"] = error_rate(attempted, run.failed())
    at_nominal = (calibrated["write_ops_s"] + calibrated["read_ops_s"]) * run.timed_seconds
    calibrated["error_rate"] = error_rate(
        round(attempted - timed_ops + at_nominal), run.failed()
    )
    return calibrated, raw
