"""Fresh-interpreter set-up probe: import logladder.cli, then build inputs.

Run as `python3 perfbench/setup_probe.py WORKLOAD SEED` with the checkout's
src/ on PYTHONPATH. Prints one JSON line with the time.perf_counter()
readings (CLOCK_MONOTONIC, comparable across processes on Linux) at which
logladder.cli finished importing and the inputs were ready, and whether
numpy was loaded by that import. The parent subtracts its own reading taken
just before it started this interpreter.
"""

import json
import sys
import time

import logladder.cli  # noqa: F401  (the import being timed)

t_imported = time.perf_counter()
numpy_loaded = "numpy" in sys.modules

import cases  # noqa: E402  (stdlib only; after the timed import on purpose)

inputs = cases.generate(sys.argv[1], int(sys.argv[2]))
t_ready = time.perf_counter()
print(json.dumps({
    "t_imported": t_imported,
    "t_ready": t_ready,
    "numpy_loaded": numpy_loaded,
    "inputs": len(inputs),
}))
