"""Start per-layer tracing in a process-cluster worker.

The benchmark puts this directory on the ``PYTHONPATH`` it hands to traced
``python -m repro serve`` workers (they inherit the environment), so the
interpreter imports this module at start-up.  It does nothing unless the
benchmark also set ``PERFBENCH_TRACE_DIR``.  A failure here must not stop
the worker: it is reported on stderr (the worker log) and the worker runs
untraced, which the benchmark notices when the worker does not answer.
"""

import os
import sys

if os.environ.get("PERFBENCH_TRACE_DIR"):
    try:
        sys.path.insert(0, os.environ["PERFBENCH_ROOT"])
        from perfbench import layertrace

        layertrace.start_worker(os.environ["PERFBENCH_TRACE_DIR"])
    except Exception as exc:  # the worker must keep serving
        print(f"perfbench: worker tracing disabled: {exc!r}", file=sys.stderr)
