"""Run ``repro-cli serve`` in this process, with layer tracing when asked.

    PYTHONPATH=src python3 perfbench/launch.py serve --port 0 ...

The benchmark starts every server through this launcher, so the untraced
and the traced run have the same process layout.  When ``PERFBENCH_SPANS``
names a file, the launcher wraps the ``repro`` entry points (see
``tracing.py``) before calling :func:`repro.client.cli.main`, writes the
spans to that file when the server exits, and also on ``SIGUSR1``, which
the benchmark sends before it kills a server on purpose.
"""

from __future__ import annotations

import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv) -> int:
    from repro.client import cli

    spans = os.environ.get("PERFBENCH_SPANS")
    tracer = None
    if spans:
        from perfbench import tracing

        tracer = tracing.install(tracing.Tracer())
        signal.signal(signal.SIGUSR1, lambda _signum, _frame: tracer.dump(spans))
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
