"""Start ``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python3 perfbench/serve_launcher.py serve --port 0 [serve flags]``
with ``src`` on ``PYTHONPATH``.  The arguments go to the ``repro`` CLI
unchanged.  When ``PERFBENCH_TRACE_OUT`` names a file, the wrappers of
:mod:`layertrace` are installed first; ``SIGUSR1`` clears what they recorded
(the measured window starts), and after the daemon drains on ``SIGTERM``
the aggregated spans are written to that file once, as JSON.
"""

from __future__ import annotations

import json
import os
import signal
import sys

from repro.cli import main
from layertrace import Tracer


def run(argv: list[str]) -> int:
    trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
    if not trace_out:
        return main(argv)
    tracer = Tracer()
    tracer.install()
    signal.signal(signal.SIGUSR1, lambda _signum, _frame: tracer.reset())
    code = main(argv)
    with open(trace_out, "w") as handle:
        json.dump(tracer.snapshot(), handle)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
