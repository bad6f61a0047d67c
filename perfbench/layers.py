"""Per-layer metrics from the traced run's spans.

Every workload reports every metric below; a layer a workload does not
cross reads 0 (for example the HTTP layers on ``engine-nested``).  Times are
means per operation in the window the metric names (the timed phase unless
stated), so the layers of one operation add up to its wall time.
"""

from __future__ import annotations

import bisect
import json
import os
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple

from perfbench.common import metric
from perfbench.tracing import ATTRS, END, ID, NAME, PARENT, RID, START

PID = 7  # appended to each span record when loaded

#: Spans that count as a named layer inside one HTTP request.
REQUEST_LAYERS = {
    "serve.protocol.json_decode",
    "serve.protocol.decode_update",
    "serve.sessions.apply_sync",
    "serve.protocol.encode_page",
    "serve.protocol.json_encode",
}
STRATEGIES = ("classic", "nested", "recursive")

UNITS = {
    "client.outside_server_ms.write": "ms",
    "client.outside_server_ms.read": "ms",
    "client.retries": "count",
    "serve.http.self_ms.write": "ms",
    "serve.http.self_ms.read": "ms",
    "serve.protocol.decode_ms": "ms",
    "serve.protocol.encode_ms": "ms",
    "serve.http.response_kb": "KiB",
    "serve.ingest.queue_wait_ms": "ms",
    "serve.ingest.batch_size": "count",
    "serve.ingest.rejected": "count",
    "serve.sessions.publish_ms": "ms",
    "engine.apply_ms": "ms",
    "engine.snapshot_ms": "ms",
    "engine.scheduler.dispatch_ms": "ms",
    "engine.backend.apply_ms": "ms",
    "engine.view_register_ms": "ms",
    "durability.wal.log_ms": "ms",
    "durability.wal.sync_ms": "ms",
    "durability.wal.bytes_per_update": "B",
    "durability.wal.syncs_per_batch": "count",
    "durability.checkpoint.ms": "ms",
    "durability.checkpoint.bytes": "B",
    "durability.recovery.view_rebuild_ms": "ms",
    "durability.recovery.replay_ms": "ms",
    "durability.recovery.records": "count",
    "ivm.shred_ms": "ms",
    **{f"ivm.{s}.refresh_ms": "ms" for s in STRATEGIES},
    **{f"ivm.{s}.ops_per_update": "count" for s in STRATEGIES},
    **{f"cost.{s}.tcost_ratio": "ratio" for s in STRATEGIES},
    "storage.relation.fold_ms": "ms",
    "storage.dict.fold_ms": "ms",
    "storage.result.accumulate_ms": "ms",
    "storage.result.freeze_ms": "ms",
    "storage.index.hits": "count",
    "storage.snapshot_freezes_per_update": "count",
    "replication.bootstrap_ms": "ms",
    "replication.catchup_ms": "ms",
    "replication.promote_ms": "ms",
    "attribution.write.client_ms": "ms",
    "attribution.write.covered_share": "ratio",
    "attribution.write.unattributed_in_server_ms": "ms",
    "attribution.write.unattributed_outside_server_ms": "ms",
    "attribution.read.client_ms": "ms",
    "attribution.read.covered_share": "ratio",
    "attribution.read.unattributed_in_server_ms": "ms",
    "attribution.read.unattributed_outside_server_ms": "ms",
    "trace.overhead.write_p50_pct": "%",
    "trace.overhead.read_p50_pct": "%",
}


def _ms(span: list) -> float:
    return (span[END] - span[START]) / 1e6


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


class Spans:
    """Spans of every traced process, indexed by process and parent."""

    def __init__(self, dumps: List[Dict[str, Any]]) -> None:
        self.spans: List[list] = []
        self.children: Dict[Tuple[int, int], List[list]] = defaultdict(list)
        self.by_id: Dict[Tuple[int, int], list] = {}
        self.engines: List[Dict[str, Any]] = []
        for dump in dumps:
            pid = dump["pid"]
            self.engines.extend(dump.get("engines", []))
            for span in dump["spans"]:
                span.append(pid)
                self.spans.append(span)
                self.by_id[(pid, span[ID])] = span
                self.children[(pid, span[PARENT])].append(span)
        self.spans.sort(key=lambda span: span[START])

    def named(self, name: str, window: Optional[Tuple[int, int]] = None) -> List[list]:
        return [
            span
            for span in self.spans
            if span[NAME] == name and (window is None or window[0] <= span[START] <= window[1])
        ]

    def kids(self, span: list) -> List[list]:
        return self.children.get((span[PID], span[ID]), [])

    def self_ms(self, span: list) -> float:
        return _ms(span) - sum(_ms(child) for child in self.kids(span))

    def within(self, span: list, names) -> List[list]:
        """Topmost descendants of ``span`` (same thread) whose name is in ``names``."""
        found = []
        stack = list(self.kids(span))
        while stack:
            child = stack.pop()
            if child[NAME] in names:
                found.append(child)
            else:
                stack.extend(self.kids(child))
        return found

    def has_ancestor(self, span: list, name: str) -> bool:
        parent = span[PARENT]
        while parent:
            span = self.by_id.get((span[PID], parent))
            if span is None:
                return False
            if span[NAME] == name:
                return True
            parent = span[PARENT]
        return False


def _load(run) -> Spans:
    dumps = []
    if run.trace_dump is not None:
        dumps.append(run.trace_dump)
    for path in run.span_files:
        if os.path.exists(path):
            with open(path) as handle:
                dumps.append(json.load(handle))
    return Spans(dumps)


def _union_ms(intervals: List[Tuple[int, int]]) -> float:
    total, current_start, current_end = 0, None, None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total / 1e6


def per_layer(
    run, untraced: Dict[str, float], traced: Dict[str, float]
) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics of a traced ``run``, plus the overhead against ``untraced``."""
    spans = _load(run)
    timed = run.timed
    values: Dict[str, float] = {name: 0.0 for name in UNITS}
    applies = spans.named("engine.apply", timed)
    per_apply = max(1, len(applies))

    # -- client and HTTP attribution (serve workloads) ------------------ #
    http_by_rid = {span[RID]: span for span in spans.named("serve.http", timed) if span[RID]}
    for op in ("write", "read"):
        stats = run.ops.get(op)
        joined = []
        for rid, start, end in (stats.records if stats else []):
            span = http_by_rid.get(rid)
            if span is not None:
                covered = sum(_ms(layer) for layer in spans.within(span, REQUEST_LAYERS))
                joined.append(((end - start) / 1e6, _ms(span), covered))
        if not joined:
            continue
        client = _mean(j[0] for j in joined)
        in_server = _mean(j[1] - j[2] for j in joined)
        outside = _mean(j[0] - j[1] for j in joined)
        values[f"client.outside_server_ms.{op}"] = outside
        values[f"serve.http.self_ms.{op}"] = in_server
        values[f"attribution.{op}.client_ms"] = client
        values[f"attribution.{op}.covered_share"] = _mean(j[2] for j in joined) / client
        values[f"attribution.{op}.unattributed_in_server_ms"] = in_server
        values[f"attribution.{op}.unattributed_outside_server_ms"] = outside
    values["client.retries"] = float(run.retries)

    writes = [s for s in http_by_rid.values() if (s[ATTRS] or {}).get("op") == "write"]
    reads = [s for s in http_by_rid.values() if (s[ATTRS] or {}).get("op") == "read"]
    decode = {"serve.protocol.json_decode", "serve.protocol.decode_update"}
    encode = {"serve.protocol.json_encode", "serve.protocol.encode_page"}
    if writes:
        values["serve.protocol.decode_ms"] = _mean(
            sum(_ms(s) for s in spans.within(w, decode)) for w in writes
        )
    if reads:
        values["serve.protocol.encode_ms"] = _mean(
            sum(_ms(s) for s in spans.within(r, encode)) for r in reads
        )
        values["serve.http.response_kb"] = _mean(
            sum((s[ATTRS] or {}).get("bytes", 0) for s in spans.within(r, {"serve.protocol.json_encode"}))
            for r in reads
        ) / 1024.0

    # -- ingest and sessions -------------------------------------------- #
    batch_of_rid = {}
    for batch in spans.named("serve.ingest.batch"):
        for rid in (batch[ATTRS] or {}).get("rids", []):
            batch_of_rid[rid] = batch
    waits = [
        _ms(sync) - _ms(batch_of_rid[sync[RID]])
        for sync in spans.named("serve.sessions.apply_sync", timed)
        if sync[RID] in batch_of_rid
    ]
    values["serve.ingest.queue_wait_ms"] = _mean(waits)
    bulk_batches = [
        batch for window in run.bulk for batch in spans.named("serve.ingest.batch", window)
    ]
    values["serve.ingest.batch_size"] = _mean((b[ATTRS] or {}).get("size", 0) for b in bulk_batches)
    values["serve.ingest.rejected"] = float(sum(stats.refused for stats in run.ops.values()))
    values["serve.sessions.publish_ms"] = _mean(_ms(s) for s in spans.named("serve.sessions.publish", timed))

    # -- engine ---------------------------------------------------------- #
    values["engine.apply_ms"] = _mean(_ms(s) for s in applies)
    values["engine.snapshot_ms"] = _mean(_ms(s) for s in spans.named("engine.snapshot", timed))
    refresh = sorted(
        (span for span in spans.spans if span[NAME].startswith("ivm.") and span[NAME].endswith(".refresh")),
        key=lambda span: span[START],
    )
    starts = [span[START] for span in refresh]
    dispatch = []
    for notify in spans.named("engine.notify", timed):
        lo = bisect.bisect_left(starts, notify[START])
        hi = bisect.bisect_right(starts, notify[END])
        inside = [
            (span[START], min(span[END], notify[END]))
            for span in refresh[lo:hi]
            if span[PID] == notify[PID]
        ]
        dispatch.append(_ms(notify) - _union_ms(inside))
    values["engine.scheduler.dispatch_ms"] = _mean(dispatch)
    values["engine.backend.apply_ms"] = sum(
        spans.self_ms(s) for s in spans.named("engine.backend_apply", timed)
    ) / per_apply
    values["engine.view_register_ms"] = _mean(
        _ms(span)
        for span in spans.named("engine.view_register", run.setup_window)
        if not spans.has_ancestor(span, "durability.recovery")
    )

    # -- durability ------------------------------------------------------ #
    values["durability.wal.log_ms"] = sum(_ms(s) for s in spans.named("durability.wal.log", timed)) / per_apply
    values["durability.wal.sync_ms"] = _mean(_ms(s) for s in spans.named("durability.wal.sync", timed))
    values["durability.wal.bytes_per_update"] = _mean(
        (s[ATTRS] or {}).get("bytes", 0)
        for s in spans.named("durability.wal.append", timed)
    )
    timed_batches = spans.named("serve.ingest.batch", timed)
    if timed_batches:
        fsyncs = sum(len(spans.within(batch, {"durability.wal.fsync"})) for batch in timed_batches)
        values["durability.wal.syncs_per_batch"] = fsyncs / len(timed_batches)
    elif applies and spans.named("durability.wal.fsync", timed):
        values["durability.wal.syncs_per_batch"] = len(spans.named("durability.wal.fsync", timed)) / per_apply
    writes_ck = spans.named("durability.checkpoint.write")
    if writes_ck:
        values["durability.checkpoint.ms"] = (
            sum(_ms(s) for s in spans.named("durability.checkpoint.capture"))
            + sum(_ms(s) for s in writes_ck)
        ) / len(writes_ck)
    values["durability.checkpoint.bytes"] = _mean(run.checkpoint_bytes)
    rebuild, replay, records = [], [], []
    for recovery in spans.named("durability.recovery"):
        views = spans.within(recovery, {"engine.view_register"})
        replays = [
            s for s in spans.spans
            if s[NAME] == "durability.recovery.replay" and s[PID] == recovery[PID]
            and recovery[START] <= s[START] <= recovery[END]
        ]
        if not views and not replays:
            continue
        view_ms = sum(_ms(v) for v in views)
        rebuild.append(view_ms)
        replay_views = sum(_ms(v) for r in replays for v in spans.within(r, {"engine.view_register"}))
        replay.append(sum(_ms(r) for r in replays) - replay_views)
        records.append(len(replays))
    values["durability.recovery.view_rebuild_ms"] = _mean(rebuild)
    values["durability.recovery.replay_ms"] = _mean(replay)
    values["durability.recovery.records"] = _mean(records)

    # -- ivm, cost, storage ---------------------------------------------- #
    values["ivm.shred_ms"] = sum(_ms(s) for s in spans.named("ivm.shred", timed)) / per_apply
    for strategy in STRATEGIES:
        values[f"ivm.{strategy}.refresh_ms"] = _mean(
            spans.self_ms(s) for s in spans.named(f"ivm.{strategy}.refresh", timed)
        )
        candidates = [
            view for engine in spans.engines for view in engine["views"]
            if view["strategy"] == strategy and any(view["ops"])
        ]
        if candidates:
            view = max(candidates, key=lambda v: len(v["ops"]))
            ops = _mean(value for value in view["ops"] if value)
            values[f"ivm.{strategy}.ops_per_update"] = ops
            if view["tcost"]:
                values[f"cost.{strategy}.tcost_ratio"] = ops / view["tcost"]
    for name, span_name in (
        ("storage.relation.fold_ms", "storage.relation.fold"),
        ("storage.dict.fold_ms", "storage.dict.fold"),
        ("storage.result.accumulate_ms", "storage.result.accumulate"),
        ("storage.result.freeze_ms", "storage.result.freeze"),
    ):
        values[name] = sum(_ms(s) for s in spans.named(span_name, timed)) / per_apply
    if spans.engines:
        busiest = max(spans.engines, key=lambda engine: engine["updates"])
        values["storage.index.hits"] = float(busiest["index_hits"])
        values["storage.snapshot_freezes_per_update"] = busiest["snapshot_freezes"] / max(1, busiest["updates"])

    # -- replication ------------------------------------------------------ #
    values["replication.bootstrap_ms"] = _mean(_ms(s) for s in spans.named("replication.install_bootstrap"))
    ships: Dict[int, float] = defaultdict(float)
    for span in spans.named("replication.ship"):
        ships[span[PID]] += _ms(span)
    values["replication.catchup_ms"] = _mean(ships.values())
    promotes = spans.named("replication.promote") or spans.named("engine.promote_writable")
    values["replication.promote_ms"] = _mean(_ms(s) for s in promotes)

    # -- tracing overhead against the untraced run ----------------------- #
    for op in ("write", "read"):
        key = f"{op}_p50_ms"
        values[f"trace.overhead.{op}_p50_pct"] = 100.0 * (traced[key] - untraced[key]) / untraced[key]
    return {name: metric(values[name], unit) for name, unit in UNITS.items()}


def print_attribution(metrics: Dict[str, Dict[str, Any]]) -> None:
    """Per op type: the share of client wall time the layer spans cover."""
    print("== attribution (traced run, timed phase, means per operation)")
    for op in ("write", "read"):
        client = metrics[f"attribution.{op}.client_ms"]["value"]
        if not client:
            print(f"  {op}: no HTTP operations in this workload")
            continue
        print(
            f"  {op}: client {client:.3f} ms; layers cover "
            f"{100 * metrics[f'attribution.{op}.covered_share']['value']:.1f}%; unattributed "
            f"{metrics[f'attribution.{op}.unattributed_in_server_ms']['value']:.3f} ms in server, "
            f"{metrics[f'attribution.{op}.unattributed_outside_server_ms']['value']:.3f} ms outside"
        )
