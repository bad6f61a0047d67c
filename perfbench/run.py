"""The repository benchmark.  One command per workload; see README.md here.

    python3 perfbench/run.py --workload serve-flat --seed 1 --seconds 15 --trace 0

Prints every metric by name with its unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the workload untraced and
then traced, and reports the per-layer metrics plus the tracing overhead.
A failed correctness gate prints ``"correct": false`` and exits with 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.common import (  # noqa: E402
    WORK,
    BenchError,
    GateError,
    clear_repro_env,
    host_config,
    latency_summary,
    metric,
    print_table,
    require_sources,
)

WORKLOADS = ("serve-flat", "engine-nested", "durable-restart")

#: Unit of every end-to-end metric, in the order BENCHMARK.json lists them.
END_TO_END_UNITS = {
    "setup_s": "s",
    "write_p50_ms": "ms",
    "write_p99_ms": "ms",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "write_ops_s": "1/s",
    "read_ops_s": "1/s",
    "ingest_ops_s": "1/s",
    "checkpoint_s": "s",
    "disk_mb": "MiB",
    "cold_start_s": "s",
    "replica_bootstrap_s": "s",
    "failover_s": "s",
    "peak_rss_mb": "MiB",
    "error_rate": "ratio",
}


def _run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns ``(run, calibrated values, raw values)``."""
    from perfbench import served

    if name == "engine-nested":
        from perfbench import inprocess

        run = inprocess.run_nested(seed, seconds, trace)
    else:
        shape = served.SERVE_FLAT if name == "serve-flat" else served.DURABLE_RESTART
        run = served.run_shape(shape, seed, seconds, trace)
    print(f"== host speed in the timed phase: {run.host.describe(*run.timed)}")
    calibrated, raw = served.end_to_end(run)
    print(f"== left out for CPU time stolen by the hypervisor: "
          f"{run.left_out['timed_share']:.0%} of the timed phase, {run.left_out['laps']} laps")
    return run, calibrated, raw


def _describe_run(name: str, seed: int, run) -> None:
    print(f"== config ({name}, seed {seed})")
    print("  " + json.dumps({**host_config(), "seed": seed, **run.config}, sort_keys=True))
    print("== operations (closed loop: one writer, one reader)")
    for op, stats in sorted(run.ops.items()):
        print(f"  {op:<10} {json.dumps(stats.to_dict())}")
    for op in ("write", "read"):
        summary = latency_summary(run.ops[op].seconds)
        kept = latency_summary(run.left_out[op])
        print(f"  {op} latency: p50 and p99 over {summary['count']} samples, "
              f"{summary['beyond_p99']} beyond the p99 (calibrated: over the "
              f"{kept['count']} kept, {kept['beyond_p99']} beyond the p99)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_sources()
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    # A terminated run still stops the servers it started.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    clear_repro_env()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)

    from perfbench import proc

    try:
        run, values, raw = _run_workload(args.workload, args.seed, args.seconds, trace=False)
        _describe_run(args.workload, args.seed, run)
        attempted, failed = run.attempted(), run.failed()
        print_table(f"end-to-end, raw ({args.workload})", {
            name: metric(raw[name], unit) for name, unit in END_TO_END_UNITS.items()
        })
        end_to_end = {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        print_table(f"end-to-end, host-speed calibrated ({args.workload})", end_to_end)
        if not args.trace:
            metrics = end_to_end
        else:
            from perfbench import layers

            shutil.rmtree(os.path.join(WORK, "spans"), ignore_errors=True)
            traced, traced_values, _ = _run_workload(args.workload, args.seed, args.seconds, trace=True)
            metrics = layers.per_layer(traced, values, traced_values)
            attempted += traced.attempted()
            failed += traced.failed()
            layers.print_attribution(metrics)
            print_table(f"per layer ({args.workload}, traced run)", metrics)
    except GateError as error:
        print(f"perfbench: correctness gate failed: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    except Exception:  # noqa: BLE001 - any other failure: no result line
        traceback.print_exc()
        return 1
    finally:
        proc.stop_all()
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
