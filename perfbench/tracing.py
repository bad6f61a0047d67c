"""Layer spans recorded from outside the program, by wrapping its entry points.

A :class:`Tracer` replaces chosen functions and methods of the ``repro``
modules with wrappers that record one span per call: name, start and end
(``time.perf_counter_ns``, which is ``CLOCK_MONOTONIC`` and so comparable
across processes on one host), the span's id, its parent on the same
thread, the request id it serves, and a few attributes.  Spans stay in
memory; :meth:`Tracer.dump` writes them out at shutdown (or on ``SIGUSR1``,
so a process the benchmark is about to kill can hand its spans over).

Nothing under ``src/`` is changed: the wrappers are installed by
:func:`install` in the benchmark's own process (in-process workloads) or in
the server process by ``launch.py`` before it calls ``repro-cli serve``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

# Span record layout (a list, for cheap appends from hot paths).
NAME, START, END, ID, PARENT, RID, ATTRS = range(7)

#: Header the benchmark's client sends so server spans join client ops.
REQUEST_HEADER = "X-Request-Id"


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._command_rids: Dict[int, Optional[str]] = {}
        self._installed: List[tuple] = []
        self.sessions: List[Any] = []
        self.engines: List[Any] = []
        self.dumps = 0

    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[list]:
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Optional[Callable[[list, tuple], None]] = None,
        after: Optional[Callable[[list, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(span, args)`` may annotate the span (request id, sizes)
        before the wrapped call runs; ``after(span, result)`` once it returned.
        """
        original = getattr(owner, attr)
        stack_of = self._stack
        ids = self._ids
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            span = [
                name,
                clock(),
                0,
                next(ids),
                parent[ID] if parent is not None else 0,
                parent[RID] if parent is not None else None,
                None,
            ]
            if before is not None:
                before(span, args)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(span, result)
                return result
            finally:
                span[END] = clock()
                stack.pop()
                spans.append(span)

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """Spans, plus per-view work and storage counters of each traced engine."""
        engines = []
        for engine in [session.engine for session in self.sessions] + list(self.engines):
            try:
                handles = engine.views()
                report = engine.storage_report()
            except Exception:  # noqa: BLE001 - a closed engine reports nothing
                continue
            views = []
            for handle in handles:
                chosen = [e for e in handle.plan.estimates if e.strategy == handle.strategy]
                views.append(
                    {
                        "name": handle.name,
                        "strategy": handle.strategy,
                        "ops": list(handle.stats.update_operations),
                        "tcost": chosen[0].tcost if chosen else None,
                    }
                )
            index_hits = freezes = 0
            for group in ("nested", "flat", "results"):
                for store in report.get(group, {}).get("stores", []):
                    freezes += store.get("snapshot_freezes", 0)
                    for index in store.get("indexes", []):
                        index_hits += index.get("hits", 0)
            engines.append(
                {
                    "views": views,
                    "updates": max((len(view["ops"]) for view in views), default=0),
                    "index_hits": index_hits,
                    "snapshot_freezes": freezes,
                }
            )
        return {"pid": os.getpid(), "spans": list(self.spans), "engines": engines}

    def dump(self, path: str) -> None:
        self.dumps += 1
        payload = self.snapshot()
        payload["dump"] = self.dumps
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


def _json_proxy(tracer: Tracer, real_json: Any) -> Any:
    """A stand-in for the ``json`` module as the server module sees it."""

    class _Proxy:
        loads = staticmethod(real_json.loads)
        dumps = staticmethod(real_json.dumps)

        def __getattr__(self, attr: str) -> Any:
            return getattr(real_json, attr)

    def _size(span: list, text: str) -> None:
        span[ATTRS] = {"bytes": len(text)}

    proxy = _Proxy()
    tracer.wrap(proxy, "loads", "serve.protocol.json_decode")
    tracer.wrap(proxy, "dumps", "serve.protocol.json_encode", after=_size)
    return proxy


def install(tracer: Tracer) -> Tracer:
    """Wrap the entry points of every ``repro`` layer the benchmark reports."""
    from repro.durability import manager as durability_manager
    from repro.durability import wal as wal_module
    from repro.engine import core as engine_core
    from repro.ivm import classic, database, naive, nested, recursive
    from repro.replication import feed
    from repro.serve import ingest, server, sessions
    from repro.storage import results, store

    wrap = tracer.wrap

    # -- serve.server / serve.protocol ---------------------------------- #
    def _dispatch(span: list, args: tuple) -> None:
        handler, method = args[0], args[1]
        rid = handler.headers.get(REQUEST_HEADER)
        path = handler.path
        if method == "POST" and path.endswith("/apply"):
            op = "write"
        elif method == "GET" and "/views/" in path:
            op = "read"
        else:
            op = "other"
        span[RID] = rid
        parent = tracer.current()
        if parent is not None and parent[NAME] == "serve.http":
            parent[RID] = rid
            parent[ATTRS] = {"op": op}

    wrap(server._Handler, "handle_one_request", "serve.http")
    wrap(server._Handler, "_dispatch", "serve.dispatch", before=_dispatch)
    tracer._installed.append((server, "json", server.json))
    server.json = _json_proxy(tracer, server.json)
    wrap(server, "decode_update", "serve.protocol.decode_update")
    wrap(server, "encode_bag_page", "serve.protocol.encode_page")

    # -- serve.sessions / serve.ingest ---------------------------------- #
    original_init = sessions.TenantSession.__init__

    @functools.wraps(original_init)
    def _session_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        tracer.sessions.append(self)

    sessions.TenantSession.__init__ = _session_init
    tracer._installed.append((sessions.TenantSession, "__init__", original_init))

    wrap(sessions.TenantSession, "apply_sync", "serve.sessions.apply_sync")
    wrap(sessions.TenantSession, "publish_snapshot", "serve.sessions.publish")

    def _submit(span: list, args: tuple) -> None:
        tracer._command_rids[id(args[1])] = span[RID]

    def _batch(span: list, args: tuple) -> None:
        commands = args[1]
        span[ATTRS] = {
            "size": len(commands),
            "rids": [tracer._command_rids.pop(id(command), None) for command in commands],
        }

    wrap(ingest.IngestWorker, "submit", "serve.ingest.submit", before=_submit)
    wrap(ingest.IngestWorker, "_run_applies", "serve.ingest.batch", before=_batch)

    # -- replication ---------------------------------------------------- #
    wrap(sessions, "install_bootstrap", "replication.install_bootstrap")
    wrap(feed, "install_bootstrap", "replication.install_bootstrap")
    wrap(sessions.TenantSession, "_ship", "replication.ship")
    wrap(sessions.TenantSession, "promote", "replication.promote")

    # -- engine --------------------------------------------------------- #
    wrap(engine_core.Engine, "_apply_logged", "engine.apply")
    wrap(engine_core.Engine, "snapshot", "engine.snapshot")
    wrap(engine_core.Engine, "view", "engine.view_register")
    wrap(engine_core.Engine, "promote_writable", "engine.promote_writable")
    wrap(database.Database, "_notify_views", "engine.notify")
    wrap(database.Database, "_apply_store_delta", "engine.backend_apply")

    # -- ivm / shredding ------------------------------------------------ #
    wrap(database.Database, "shred_update", "ivm.shred")
    wrap(classic.ClassicIVMView, "on_update", "ivm.classic.refresh")
    wrap(nested.NestedIVMView, "on_update", "ivm.nested.refresh")
    wrap(recursive.RecursiveIVMView, "on_update", "ivm.recursive.refresh")
    wrap(naive.NaiveView, "on_update", "ivm.naive.refresh")

    # -- durability ----------------------------------------------------- #
    manager = durability_manager.DurabilityManager
    wrap(manager, "log_update", "durability.wal.log")
    wrap(manager, "sync", "durability.wal.sync")
    wrap(manager, "capture", "durability.checkpoint.capture")
    wrap(manager, "write_capture", "durability.checkpoint.write")
    wrap(manager, "open_and_recover", "durability.recovery")
    wrap(manager, "_replay_payload", "durability.recovery.replay")

    def _append(span: list, args: tuple) -> None:
        span[ATTRS] = {"bytes": len(args[1])}

    wrap(wal_module.WriteAheadLog, "append", "durability.wal.append", before=_append)
    wrap(wal_module.WriteAheadLog, "_sync_buffer", "durability.wal.fsync")

    # -- storage -------------------------------------------------------- #
    wrap(store.RelationStore, "apply_delta", "storage.relation.fold")
    wrap(store.DictionaryStore, "apply_delta", "storage.dict.fold")
    wrap(results.ResultStore, "apply_bag", "storage.result.accumulate")
    wrap(results.ResultStore, "freeze", "storage.result.freeze")
    return tracer
