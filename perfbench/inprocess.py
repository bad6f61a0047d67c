"""The in-process workload: ``engine-nested``.

An :class:`repro.Engine` with no WAL and no HTTP maintains three views,
one per incremental strategy:

* ``related`` — the paper's nested running example (``nested`` strategy);
* ``pairs`` — the flat genre self-join (``classic``: a compiled hash-join
  probing a persistent index);
* ``squares`` — ``flatten(R) × flatten(R)`` over a ``Bag(Bag(Base))``
  relation (``recursive``), whose inner-bag inserts make
  :mod:`repro.shredding` produce labels and dictionary deltas.

Every update is a sliding-window step: it inserts a fresh movie and a
fresh inner bag and deletes the ones inserted a window earlier, so
relation and view sizes stay constant and percentiles stay repeatable.
One thread alternates a write (``Engine.apply``) and a read (``result()``
of every view, iterated to the last element), after an untimed warm-up,
and calls ``Engine.vacuum()`` every :data:`VACUUM_EVERY` writes.  Gate:
every view ≡ ``strategy="naive"`` at fixed points.

The lifecycle metrics (checkpoint, bulk ingest, cold start, replica
bootstrap, failover) come from a durable twin of the final state, driven
through the same public surfaces in process: ``Engine(data_dir=...)``,
``apply_stream(batched=True)``, and ``repro.replication.feed``'s bootstrap
and frame shipping into ``Engine(standby=True)``.  Each cycle starts with a
vacuum.
"""

from __future__ import annotations

import gc
import os
import random
import time
from typing import Dict, List, Tuple

from repro import Engine
from repro.bag.bag import Bag
from repro.ivm.updates import Update
from repro.nrc import ast
from repro.nrc.types import BASE, bag_of
from repro.replication import feed
from repro.workloads import MOVIE_SCHEMA, genre_selfjoin_query, related_query

from perfbench import calibrate, gates
from perfbench.client import OpStats
from perfbench.common import dir_mb, fresh_dir, peak_rss_mb
from perfbench.served import CHECKPOINTS, Run, Stream

MOVIES = 60
BAGS = 12
INNER = 3
TAIL = 128
#: Lifecycle cycles: each lifecycle metric is their median.  A cycle takes
#: about 1.4 s here, and its bootstrap and bulk tail are mostly file I/O,
#: which varies more than the rest, so there are more than on serve-flat.
CYCLES = 9
#: Set-ups per run: one takes about 50 ms, and the host's speed moves within
#: a second, so ``setup_s`` is the median of many, after an untimed one.
SETUPS = 15
#: Untimed write and read pairs before the timed phase.
WARMUP = 20
#: Writes between two ``Engine.vacuum()`` calls.  Without it the nested
#: backend keeps the labels of deleted inner bags, and a write slows from
#: 4 ms to 18 ms over 1,600 sliding-window updates at constant sizes.
VACUUM_EVERY = 100
NESTED_SCHEMA = bag_of(bag_of(BASE))


def _queries() -> Dict[str, Tuple[object, str]]:
    relation = ast.Relation("R", NESTED_SCHEMA)
    return {
        "related": (related_query(), "nested"),
        "pairs": (genre_selfjoin_query(), "classic"),
        "squares": (ast.Product((ast.Flatten(relation), ast.Flatten(relation))), "recursive"),
    }


class BagStream:
    """The ``Bag(Bag(Base))`` counterpart of :class:`Stream`."""

    def __init__(self, rows: int, seed: int, updates: int) -> None:
        rng = random.Random(f"R-{seed}")

        def inner() -> Bag:
            return Bag(f"v{rng.randrange(200)}" for _ in range(INNER))

        self.initial = [inner() for _ in range(rows)]
        self.fresh = [inner() for _ in range(updates)]
        self.pool = self.initial + self.fresh


class Updates:
    """Pre-generated sliding-window updates over ``M`` and ``R``."""

    def __init__(self, seed: int, count: int) -> None:
        self.movies = Stream("M", MOVIES, seed, count)
        self.bags = BagStream(BAGS, seed, count)
        self.updates = [
            Update(
                relations={
                    "M": Bag.from_pairs([(self.movies.fresh[i], 1), (self.movies.pool[i], -1)]),
                    "R": Bag.from_pairs([(self.bags.fresh[i], 1), (self.bags.pool[i], -1)]),
                }
            )
            for i in range(count)
        ]
        self.cursor = 0

    def take(self) -> Update:
        update = self.updates[self.cursor]
        self.cursor += 1
        return update


def _populate(engine: Engine, movies: Bag, bags: Bag) -> None:
    engine.dataset("M", MOVIE_SCHEMA, movies)
    engine.dataset("R", NESTED_SCHEMA, bags)
    for name, (query, strategy) in _queries().items():
        engine.view(name, query, strategy=strategy)


def _results(engine: Engine) -> Dict[str, Bag]:
    return {handle.name: handle.result() for handle in engine.views()}


def _read(engine: Engine) -> int:
    """A full read: every view's result, consumed element by element."""
    return sum(mult for handle in engine.views() for _element, mult in handle.result().items())


def _check_naive(label: str, engine: Engine) -> None:
    """Every maintained view ≡ ``strategy="naive"`` over the same relations."""
    reference = Engine()
    reference.dataset("M", MOVIE_SCHEMA, engine.relation("M"))
    reference.dataset("R", NESTED_SCHEMA, engine.relation("R"))
    for name, (query, _strategy) in _queries().items():
        reference.view(name, query, strategy="naive")
    gates.views_match(label, _results(engine), _results(reference))
    reference.close()


def _timed(stats: OpStats, action):
    stats.attempted += 1
    start = time.perf_counter_ns()
    try:
        result = action()
    except BaseException:
        stats.failed += 1
        raise
    end = time.perf_counter_ns()
    stats.seconds.append((end - start) / 1e9)
    stats.records.append(("", start, end))
    return result


def _mirror(source_dir: str, replica_dir: str) -> None:
    """Ship the primary's checkpoint and WAL tail into an empty directory."""
    feed.install_bootstrap(
        replica_dir, feed.package_bootstrap(os.path.join(source_dir, "checkpoints"))
    )
    source_wal = os.path.join(source_dir, "wal")
    replica_wal = os.path.join(replica_dir, "wal")
    position = feed.wal_end_position(replica_wal)
    while True:
        chunk = feed.read_frames(source_wal, *position)
        if chunk.status != "ok":
            raise gates.GateError(f"WAL feed answered {chunk.status!r} at {position}")
        if not chunk.frames:
            return
        feed.append_mirror_frames(replica_wal, chunk.frames)
        position = chunk.next


def _cycle(run: Run, updates: Updates, primary: Engine, data_dir: str, index: int):
    ops = run.ops
    _timed(ops.setdefault("vacuum", OpStats()), primary.vacuum)
    for _ in range(CHECKPOINTS):
        started = run.start_lap()
        _timed(ops.setdefault("checkpoint", OpStats()), primary.checkpoint)
        run.lap("checkpoint_s", started)
    run.checkpoint_bytes.append(int(dir_mb(os.path.join(data_dir, "checkpoints")) * 1024 * 1024))

    ingest = ops.setdefault("ingest", OpStats())
    start = run.start_lap()
    for _ in range(TAIL // 64):
        batch = [updates.take() for _ in range(64)]

        def apply_batch(batch=batch) -> None:
            primary.apply_stream(batch, batched=True)
            primary.sync_wal()

        _timed(ingest, apply_batch)
    run.bulk.append((start, time.perf_counter_ns()))
    run.lap("ingest_ops_s", start, count=TAIL)
    run.disk_mb.append(dir_mb(data_dir))
    before = {"version": primary.state_version, "views": _results(primary)}
    primary.simulate_crash()

    started = run.start_lap()
    restarted = Engine(data_dir=data_dir, fsync="batch")
    after = {"version": restarted.state_version, "views": _results(restarted)}
    run.lap("cold_start_s", started)
    gates.same_version_state(f"cycle {index} restarted vs pre-restart", before, after)

    replica_dir = fresh_dir("data", f"replica{index}")
    started = run.start_lap()
    _mirror(data_dir, replica_dir)
    replica = Engine(data_dir=replica_dir, fsync="batch", standby=True)
    mirrored = {"version": replica.state_version, "views": _results(replica)}
    run.lap("replica_bootstrap_s", started)
    gates.same_version_state(f"cycle {index} replica vs primary", after, mirrored)

    update = updates.take()
    inserted = next(element for element, mult in update.relations["M"].items() if mult > 0)
    started = run.start_lap()
    restarted.simulate_crash()

    def promote_and_write() -> None:
        replica.promote_writable(epoch=replica.replication_epoch + 1)
        replica.apply(update)
        replica.sync_wal()

    _timed(ops.setdefault("failover", OpStats()), promote_and_write)
    run.lap("failover_s", started)
    gates.write_visible(f"cycle {index} post-failover write", replica.relation("M"), inserted)
    for engine in (primary, restarted):
        engine.close()
    return replica, replica_dir


def run_nested(seed: int, seconds: float, trace: bool) -> Run:
    run = Run()
    run.local_laps = True
    updates = Updates(seed, WARMUP + int(seconds * 600) + TAIL * CYCLES + CYCLES)
    # The generated inputs live for the whole run: keep them out of the
    # collector, so its pauses come from the engine, not the harness.
    gc.collect()
    gc.freeze()
    tracer = None
    if trace:
        from perfbench import tracing

        tracer = tracing.install(tracing.Tracer())
    engines: List[Engine] = []
    try:
        movies = Bag(updates.movies.initial)
        bags = Bag(updates.bags.initial)
        engine = Engine()
        _populate(engine, movies, bags)
        setup_start = time.perf_counter_ns()
        for _ in range(SETUPS):
            engine.close()
            started = run.start_lap()
            engine = Engine()
            _populate(engine, movies, bags)
            run.lap("setup_s", started)
        run.setup_window = (setup_start, time.perf_counter_ns())
        engines.append(engine)
        if tracer is not None:
            tracer.engines.append(engine)
        run.config = {
            "movies": MOVIES,
            "bags": BAGS,
            "shards": engine.database.storage_shards(),
            "refresh_workers": engine.database.refresh_mode(),
            "backend": engine.database.execution_report()["requested"],
            "strategies": {h.name: h.strategy for h in engine.views()},
            "lifecycle_fsync": "batch",
        }
        _check_naive("after set-up", engine)

        # Untimed warm-up: the first deltas through each view are slower.
        for _ in range(WARMUP):
            engine.apply(updates.take())
            _read(engine)
        engine.vacuum()
        write = run.ops.setdefault("write", OpStats())
        read = run.ops.setdefault("read", OpStats())
        vacuum = run.ops.setdefault("vacuum", OpStats())
        run.host.probe()
        start = time.perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        total = len(updates.updates) - TAIL * CYCLES - CYCLES
        while time.perf_counter_ns() < deadline and updates.cursor < total:
            update = updates.take()
            _timed(write, lambda: engine.apply(update))
            _timed(read, lambda: _read(engine))
            if write.attempted % VACUUM_EVERY == 0:
                _timed(vacuum, engine.vacuum)
            if write.attempted % calibrate.PROBE_EVERY == 0:
                run.host.probe()
        end = time.perf_counter_ns()
        run.host.probe()
        run.timed = (start, end)
        run.timed_seconds = (end - start) / 1e9
        _check_naive("after the timed phase", engine)

        data_dir = fresh_dir("data", "primary")
        primary = Engine(data_dir=data_dir, fsync="batch")
        _populate(primary, engine.relation("M"), engine.relation("R"))
        engines.append(primary)
        for index in range(CYCLES):
            primary, data_dir = _cycle(run, updates, primary, data_dir, index)
            engines.append(primary)
            if tracer is not None:
                tracer.engines.append(primary)
        _check_naive("after the last failover", primary)
        run.peak_rss_mb.append(peak_rss_mb())
        if tracer is not None:
            run.trace_dump = tracer.snapshot()
    finally:
        if tracer is not None:
            tracer.uninstall()
        for engine in engines:
            engine.close()
    return run
