"""Traced stand-in for ``python -m repro.cli``: same argv, same behaviour.

Run as ``python perfbench/shim.py <repro.cli arguments>`` with
``PERFBENCH_SPANS`` naming the output file.  In a fresh interpreter it
times ``import repro.cli`` (the ``import`` layer), installs the layer
wrappers of :mod:`tracer`, calls ``repro.cli.main(argv)``, and writes
every recorded span when ``main`` returns -- for ``serve``, after the
SIGTERM drain.
"""

from __future__ import annotations

import os
import sys
import time

start = time.perf_counter()
import repro.cli  # noqa: E402
end = time.perf_counter()

import tracer  # noqa: E402  (this directory is sys.path[0])

tracer.record(tracer.IMPORT, start, end)
tracer.install()
try:
    code = repro.cli.main(sys.argv[1:])
finally:
    tracer.dump(os.environ["PERFBENCH_SPANS"])
sys.exit(code)
